"""SDC campaign engine tests: the golden-output oracle, stratified
trial planning, outcome classification, serial-vs-parallel portability,
journal resume, early stop, report validation, the terminal renderer,
and the ``repro campaign`` CLI exit codes."""

import ast
import copy
import json
import pickle
import shlex

import numpy as np
import pytest

from repro.cli import _fault_plan, _replay_command, build_parser, main
from repro.harness import render_campaign_report, run_supervised
from repro.ir import F64
from repro.resilience import (
    CAMPAIGN_SCHEMA_VERSION, CampaignError, FaultPlan, FaultRecord,
    run_campaign, stratified_plan, trial_seed, validate_campaign_report,
)
from repro.resilience.campaign import (
    corrupted_segments, fault_log_digest, memory_digests, site_rate,
)
from repro.telemetry import wilson_interval
from repro.trace import SimMemory

from . import kernels


def _saxpy_env(n=32, seed=0):
    rng = np.random.default_rng(seed)
    mem = SimMemory()
    A = mem.alloc(n, F64, "A", init=rng.uniform(-1, 1, n))
    B = mem.alloc(n, F64, "B", init=rng.uniform(-1, 1, n))
    return mem, [A, B, n, 2.0]


def _campaign(plan, *, trials=6, n=32, **kw):
    mem, args = _saxpy_env(n)
    return run_campaign(kernels.saxpy, args, plan=plan, trials=trials,
                        memory=mem, workload_name="saxpy", **kw)


class TestTrialPlanning:
    def test_trial_seeds_are_distinct_and_reproducible(self):
        seeds = [trial_seed(7, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert seeds == [trial_seed(7, i) for i in range(50)]
        assert 7 not in seeds  # the base seed is the golden run's, never a trial's

    def test_stratified_plan_zeroes_other_sites(self):
        template = FaultPlan(seed=1, bitflip_load_rate=0.2,
                             message_drop_rate=0.1, dram_stall_rate=0.3,
                             accel_fault_rate=0.4)
        plan = stratified_plan(template, "dram", seed=99)
        assert plan.seed == 99
        assert plan.dram_stall_rate == 0.3
        assert plan.bitflip_load_rate == 0.0
        assert plan.message_drop_rate == 0.0
        assert plan.accel_fault_rate == 0.0
        # non-rate knobs survive stratification
        assert plan.dram_stall_cycles == template.dram_stall_cycles

    def test_stratified_plan_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            stratified_plan(FaultPlan(), "cosmic", seed=0)

    def test_site_rate_combines_message_rates(self):
        plan = FaultPlan(message_drop_rate=0.1, message_delay_rate=0.2)
        assert site_rate(plan, "msg") == pytest.approx(0.3)
        assert site_rate(plan, "mem") == 0.0
        assert site_rate(plan, "none") == 0.0

    def test_wilson_interval_brackets_the_rate(self):
        low, high = wilson_interval(3, 10)
        assert 0.0 <= low <= 0.3 <= high <= 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


class TestOracle:
    def test_memory_digests_key_by_name_and_base(self):
        mem, _ = _saxpy_env(8)
        digests = memory_digests(mem)
        assert set(digests) == {f"{s.name}@{s.base:#x}"
                                for s in mem.segments}
        assert all(len(d) == 64 for d in digests.values())

    def test_corrupted_segments_reports_diffs_and_missing(self):
        golden = {"A@0x10": "aa", "B@0x20": "bb"}
        assert corrupted_segments(golden, dict(golden)) == ()
        assert corrupted_segments(golden, {"A@0x10": "aa",
                                           "B@0x20": "XX"}) == ("B@0x20",)
        assert corrupted_segments(golden, {"A@0x10": "aa"}) == ("B@0x20",)

    def test_zero_rate_campaign_is_all_masked_with_exact_ci(self):
        result = _campaign(FaultPlan(seed=0), trials=4)
        assert result.sites == ("none",)
        assert result.outcomes() == {"masked": 4}
        report = result.report()
        assert report["sdc"]["ci"] == [0.0, 0.0]
        assert report["per_site"]["none"]["sdc"]["ci"] == [0.0, 0.0]
        assert not result.early_stopped
        validate_campaign_report(report)

    def test_saturated_bitflips_are_sdc_never_masked(self):
        result = _campaign(FaultPlan(seed=2, bitflip_load_rate=1.0),
                           trials=4)
        assert result.sites == ("mem",)
        outcomes = result.outcomes()
        assert outcomes.get("masked", 0) == 0
        assert outcomes.get("sdc", 0) > 0
        for t in result.sdc_trials():
            assert t.corrupted  # names the segment(s) that differ
            assert t.faults > 0 and t.fault_digest

    def test_dropped_messages_classify_as_detected(self):
        result = run_campaign(
            kernels.ping_pong, [8], plan=FaultPlan(seed=1,
                                                   message_drop_rate=1.0),
            trials=2, num_tiles=2, workload_name="ping_pong")
        assert result.outcomes() == {"detected": 2}
        assert all("deadlock" in t.error for t in result.trials)

    def test_golden_failure_raises_campaign_error(self):
        mem, args = _saxpy_env()
        with pytest.raises(CampaignError, match="golden run failed"):
            run_campaign(kernels.saxpy, args, memory=mem,
                         plan=FaultPlan(seed=0, dram_stall_rate=0.1),
                         trials=2, max_cycles=5)

    def test_rejects_bad_inputs(self):
        mem, args = _saxpy_env()
        with pytest.raises(ValueError, match="trials"):
            run_campaign(kernels.saxpy, args, memory=mem,
                         plan=FaultPlan(), trials=0)
        with pytest.raises(ValueError, match="unknown fault site"):
            run_campaign(kernels.saxpy, args, memory=mem,
                         plan=FaultPlan(), trials=1, sites=["cosmic"])


class TestDeterminismAndPortability:
    PLAN = FaultPlan(seed=3, bitflip_load_rate=0.3, dram_stall_rate=0.2)

    @pytest.fixture(scope="class")
    def serial(self):
        return _campaign(self.PLAN, trials=6)

    def test_rerun_is_bit_identical(self, serial):
        again = _campaign(self.PLAN, trials=6)
        assert json.dumps(serial.report(), sort_keys=True) == \
            json.dumps(again.report(), sort_keys=True)

    def test_parallel_workers_match_serial_bit_for_bit(self, serial):
        parallel = _campaign(self.PLAN, trials=6, jobs=4)
        assert json.dumps(serial.report(), sort_keys=True) == \
            json.dumps(parallel.report(), sort_keys=True)
        # the fault logs themselves are identical, not just the counts:
        # each trial's log digest survives the worker-process round trip
        assert [t.fault_digest for t in serial.trials] == \
            [t.fault_digest for t in parallel.trials]
        assert all(t.fault_digest for t in serial.trials
                   if t.site == "mem")

    def test_stratification_round_robins_sites(self, serial):
        assert serial.sites == ("mem", "dram")
        assert [t.site for t in serial.trials] == \
            ["mem", "dram", "mem", "dram", "mem", "dram"]
        report = serial.report()
        assert report["per_site"]["mem"]["trials"] == 3
        assert report["per_site"]["dram"]["trials"] == 3
        validate_campaign_report(report)

    def test_sdc_seed_replays_the_exact_corruption(self, serial):
        sdc = serial.sdc_trials()
        assert sdc, "the 0.3-bitflip plan must produce at least one SDC"
        trial = sdc[0]
        mem, args = _saxpy_env()
        golden_mem, golden_args = _saxpy_env()
        from repro.harness import simulate
        simulate(kernels.saxpy, golden_args, memory=golden_mem)
        replay = run_supervised(
            kernels.saxpy, args,
            plan=stratified_plan(self.PLAN, trial.site, trial.seed),
            memory=mem)
        assert fault_log_digest(replay.fault_log) == trial.fault_digest
        assert corrupted_segments(memory_digests(golden_mem),
                                  memory_digests(mem)) == trial.corrupted


class TestJournalAndEarlyStop:
    PLAN = FaultPlan(seed=3, bitflip_load_rate=0.3, dram_stall_rate=0.2)

    def test_journal_resume_restores_trials_bit_identically(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        first = _campaign(self.PLAN, trials=4, journal_path=journal)
        resumed = _campaign(self.PLAN, trials=4, journal_path=journal,
                            resume=True)
        assert json.dumps(first.report(), sort_keys=True) == \
            json.dumps(resumed.report(), sort_keys=True)
        assert [t.fault_digest for t in first.trials] == \
            [t.fault_digest for t in resumed.trials]

    def test_fresh_campaign_clears_stale_journal(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        journal.write_text('{"bogus": "entry"}\n')
        result = _campaign(self.PLAN, trials=2, journal_path=str(journal))
        assert len(result.trials) == 2

    def test_early_stop_honors_ci_target(self):
        result = _campaign(FaultPlan(seed=0), trials=40,
                           sdc_ci_target=0.9, ci_check_every=4)
        assert result.early_stopped
        assert len(result.trials) == 4
        report = result.report()
        assert report["early_stopped"] is True
        assert report["requested_trials"] == 40
        assert report["trials"] == 4
        validate_campaign_report(report)


class TestFaultLogPortability:
    def test_fault_record_pickle_round_trip(self):
        record = FaultRecord("mem", "bitflip", 17, "addr=0x10040 bit=3")
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert clone.as_tuple() == ("mem", "bitflip", 17,
                                    "addr=0x10040 bit=3")

    def test_fault_log_pickle_round_trip_preserves_digest(self):
        mem, args = _saxpy_env()
        run = run_supervised(kernels.saxpy, args,
                              plan=FaultPlan(seed=5,
                                             bitflip_load_rate=0.5),
                              memory=mem)
        assert len(run.fault_log) > 0
        clone = pickle.loads(pickle.dumps(run.fault_log))
        assert clone == run.fault_log
        assert fault_log_digest(clone) == fault_log_digest(run.fault_log)


class TestReportValidation:
    @pytest.fixture(scope="class")
    def report(self):
        return _campaign(FaultPlan(seed=2, bitflip_load_rate=1.0),
                         trials=2).report()

    def _corrupt(self, report, mutate):
        bad = copy.deepcopy(report)
        mutate(bad)
        return bad

    def test_valid_report_passes(self, report):
        assert validate_campaign_report(report) == 2
        assert report["schema_version"] == CAMPAIGN_SCHEMA_VERSION

    def test_rejects_wrong_schema_version(self, report):
        bad = self._corrupt(report, lambda r: r.update(schema_version=99))
        with pytest.raises(ValueError, match="schema version"):
            validate_campaign_report(bad)

    def test_rejects_missing_key(self, report):
        bad = self._corrupt(report, lambda r: r.pop("per_site"))
        with pytest.raises(ValueError, match="per_site"):
            validate_campaign_report(bad)

    def test_rejects_unknown_outcome_label(self, report):
        bad = self._corrupt(
            report, lambda r: r["outcomes"].update(exploded=0))
        with pytest.raises(ValueError, match="unknown outcome"):
            validate_campaign_report(bad)

    def test_rejects_leaky_outcome_counts(self, report):
        bad = self._corrupt(
            report, lambda r: r["outcomes"].update(masked=7))
        with pytest.raises(ValueError, match="sum to"):
            validate_campaign_report(bad)

    def test_rejects_rate_outside_ci(self, report):
        bad = self._corrupt(
            report, lambda r: r["sdc"].update(ci=[0.0, 0.001], rate=0.9))
        with pytest.raises(ValueError, match="outside its own"):
            validate_campaign_report(bad)

    def test_rejects_sdc_count_disagreement(self, report):
        def mutate(r):
            r["sdc"]["count"] = 0
            r["sdc"]["rate"] = 0.0
            r["sdc"]["ci"] = [0.0, 0.5]
        with pytest.raises(ValueError, match="disagrees"):
            validate_campaign_report(self._corrupt(report, mutate))

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="must be a dict"):
            validate_campaign_report([])


class TestRenderer:
    def test_renders_sites_bars_and_sdc_trials(self):
        result = _campaign(FaultPlan(seed=3, bitflip_load_rate=0.3,
                                     dram_stall_rate=0.2), trials=4)
        text = render_campaign_report(result.report())
        assert "fault campaign: saxpy" in text
        assert "golden:" in text
        assert " mem" in text and "dram" in text
        assert "aggregate SDC rate" in text
        if result.sdc_trials():
            assert "seed replays the corruption" in text


SPMV = ["spmv", "--size", "rows=12", "--size", "cols=12"]
#: one accel_sgemm invocation, faulted half the time
ACCEL = ["sinkhorn-accel", "--accel-fault-rate", "0.5"]


class TestCampaignCLI:
    def test_campaign_reports_and_exits_zero(self, capsys, tmp_path):
        out_json = str(tmp_path / "campaign.json")
        assert main(["campaign"] + SPMV
                    + ["--trials", "2", "--sites", "dram",
                       "--dram-stall-rate", "0.5",
                       "--json", out_json]) == 0
        out = capsys.readouterr().out
        assert "fault campaign: spmv" in out
        with open(out_json) as handle:
            report = json.load(handle)
        assert validate_campaign_report(report) == 2
        assert report["sites"] == ["dram"]

    def test_sdc_threshold_breach_exits_two(self, capsys):
        # dense kernel: saturated bitflips corrupt the output instead of
        # crashing interpretation, so the trials classify as SDC
        assert main(["campaign", "sgemm", "--size", "n=8",
                     "--trials", "2", "--sites", "mem",
                     "--bitflip-rate", "1.0",
                     "--sdc-threshold", "0.1"]) == 2
        out = capsys.readouterr().out
        assert "replay: repro inject sgemm" in out
        assert "--seed" in out

    def test_generous_threshold_exits_zero(self, capsys):
        assert main(["campaign"] + SPMV
                    + ["--trials", "2", "--sites", "dram",
                       "--dram-stall-rate", "0.2",
                       "--sdc-threshold", "1.0"]) == 0

    def test_invalid_plan_exits_two(self, capsys):
        assert main(["campaign"] + SPMV
                    + ["--trials", "2", "--drop-rate", "0.7",
                       "--delay-rate", "0.5"]) == 2
        assert "must not exceed" in capsys.readouterr().err

    def test_inject_faults_an_accelerated_workload(self, capsys):
        assert main(["inject"] + ACCEL + ["--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "outcome: ok" in out
        assert "accel.fail: 1" in out

    def test_accelerator_trial_replays_through_inject(self, capsys,
                                                      tmp_path):
        """Each accelerator trial's replay line (the one campaign prints
        for an SDC trial) reruns it through inject: same fault count,
        and a masked trial is an ok run."""
        journal = tmp_path / "trials.jsonl"
        campaign = (["campaign"] + ACCEL
                    + ["--sites", "accel", "--trials", "3",
                       "--journal", str(journal)])
        assert main(campaign) == 0
        capsys.readouterr()
        args = build_parser().parse_args(campaign)
        faults = []
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            seed = dict(ast.literal_eval(record["parameters"]))["seed"]
            replay = _replay_command(args, _fault_plan(args), "accel", seed)
            assert main(shlex.split(replay)[1:]) == 0
            out = capsys.readouterr().out
            assert record["outcome"] == "masked"
            assert "outcome: ok" in out
            faults.append(json.loads(record["error"])["faults"])
            assert f"faults injected: {faults[-1]}" in out
        assert len(faults) == 3 and max(faults) > 0
