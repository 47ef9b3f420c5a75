"""The behaviour baseline (``tests/behaviour_baseline.py``).

Every case's full ``stats_to_dict`` report must equal its committed
entry in ``tests/behaviour_baseline.json``, leaf for leaf. The Parboil
cases must also agree with ``BENCH_cycle_identity.json``, which
``bench/run.py`` and CI read. The comparator tests show that the check
trips on a one-field change, including one entry of an array that the
baseline stores only as a hash.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.workloads import PARBOIL

from .behaviour_baseline import (
    CASES, HASH_OVER, SAME_AS, check_case, compact, diff, load_baseline,
)

BASELINE = load_baseline()
IDENTITY = json.loads(
    (Path(__file__).parent.parent / "benchmarks" / "results"
     / "BENCH_cycle_identity.json").read_text())


def test_baseline_holds_every_case():
    assert sorted(BASELINE) == sorted(set(CASES) - set(SAME_AS))


def test_parboil_cases_match_bench_identity():
    assert IDENTITY["core"] == "ooo" and IDENTITY["hierarchy"] == "dae"
    assert sorted(IDENTITY["kernels"]) == sorted(PARBOIL)
    for kernel, record in IDENTITY["kernels"].items():
        report = BASELINE[f"parboil-{kernel}"]
        assert (report["cycles"], report["instructions"]) \
            == (record["cycles"], record["instructions"]), kernel


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_baseline(case):
    problems = check_case(case, BASELINE)
    assert not problems, (
        f"simulated behaviour changed in {len(problems)} leaf(s); if that "
        f"is meant, rewrite the baseline with `PYTHONPATH=src python "
        f"tests/behaviour_baseline.py --write`:\n" + "\n".join(problems))


class TestComparator:
    CASE = "sgemm-ino-1t-simple"

    @pytest.fixture(scope="class")
    def raw(self):
        return CASES[self.CASE]()

    def test_cycles_plus_one(self):
        live = copy.deepcopy(BASELINE[self.CASE])
        live["cycles"] += 1
        cycles = BASELINE[self.CASE]["cycles"]
        assert diff({self.CASE: BASELINE[self.CASE]}, {self.CASE: live}) \
            == [f"{self.CASE}: cycles: baseline {cycles}, "
                f"live {cycles + 1}"]

    def test_one_entry_of_a_hashed_per_set_array(self, raw):
        report = copy.deepcopy(raw)
        set_misses = report["memory"]["caches"]["L1"]["set_misses"]
        assert len(set_misses) > HASH_OVER
        set_misses[5] += 1
        problems = diff({self.CASE: BASELINE[self.CASE]},
                        {self.CASE: compact(report)})
        assert len(problems) == 1, problems
        assert problems[0].startswith(
            f'{self.CASE}: memory.caches.L1.set_misses: baseline "sha256:')

    def test_missing_case(self):
        live = dict(BASELINE)
        del live[self.CASE]
        assert diff(BASELINE, live) \
            == [f"{self.CASE}: in the baseline but not run"]

    def test_extra_case(self):
        live = dict(BASELINE, extra=BASELINE[self.CASE])
        assert diff(BASELINE, live) == ["extra: run but not in the baseline"]
