#!/usr/bin/env python3
"""The repository benchmark: simulator speed end to end and per layer,
over four named workloads.

    python bench/run.py                           # all four, end to end
    python bench/run.py --workload dse-sweep --seed 3 --seconds 25
    python bench/run.py --workload graphproj-dae --trace 1   # per layer
    python bench/run.py --ledger                  # both; writes results/

Every (workload, pass) runs in a fresh interpreter (``workloads.py``),
one at a time, passes going round-robin across the workloads so machine
drift hits each one alike. The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics with
``--trace 1``). The exit code is 1 when any correctness check failed and
2 when the benchmark cannot run at all. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKDIR = BENCH / ".work"

#: seconds one pass takes on the reference host (2 vCPU x86-64); with
#: ``--seconds S`` a workload runs round(S / nominal) passes, at least
#: MIN_PASSES, so the sample count does not depend on how loaded the
#: machine is
NOMINAL_PASS_S = {
    "parboil-ooo": 5.0,
    "graphproj-dae": 5.0,
    "parboil-observed": 11.5,
    "dse-sweep": 7.5,
}
MIN_PASSES = 3
#: workloads whose seed-0 runs must match the cycle-identity baseline
IDENTITY_WORKLOADS = ("parboil-ooo", "parboil-observed")
IDENTITY_FILE = "benchmarks/results/BENCH_cycle_identity.json"
SETUP_SPAWNS = 5
#: about five times the slowest nominal pass; after a crashed or timed-out
#: pass no further pass starts, so one hang cannot outlast the run budget
PASS_TIMEOUT_S = 60
#: the tail percentile needs this many samples beyond it
TAIL_BEYOND = 10

_passes_started = itertools.count()


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or inputs)."""


def child_env() -> dict:
    env = dict(os.environ)
    # a prepare cache would turn prepare into cache hits
    env.pop("REPRO_PREP_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(command: list, timeout: float) -> int:
    """Run ``command`` in its own session and wait; on timeout, kill the
    whole group (sweep workers included) and return -1."""
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return -1
    finally:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def run_pass(workload: str, seed: int, mode: str) -> dict:
    """One pass in a fresh interpreter; its exports live in a scratch
    directory that is removed afterwards."""
    workdir = WORKDIR / f"{os.getpid()}-{next(_passes_started)}"
    workdir.mkdir(parents=True)
    try:
        code = run_child([sys.executable, str(BENCH / "workloads.py"),
                          workload, str(seed), mode, str(workdir)],
                         PASS_TIMEOUT_S)
        result = workdir / "result.json"
        if code != 0 or not result.exists():
            reason = "timed out" if code == -1 else f"exited {code}"
            return {"crashed": f"{mode} pass of {workload} {reason}"}
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup() -> list:
    """Seconds to ``import repro.cli`` in a fresh interpreter, once per
    spawn; one uncounted spawn first fills the bytecode cache."""
    code = ("import time; start = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - start)")
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        try:
            out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                 env=child_env(), capture_output=True,
                                 text=True, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("import repro.cli timed out")
        if out.returncode != 0:
            raise BenchError(f"import repro.cli failed: "
                             f"{out.stderr.strip()[-300:]}")
        if spawn:
            times.append(float(out.stdout))
    return times


# -- statistics ---------------------------------------------------------------

def spread(values: list) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def tail(values: list) -> dict:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it;
    the maximum below twice that many samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return {"value": ordered[-1], "percentile": 100, "n": n}
    return {"value": ordered[n - TAIL_BEYOND - 1],
            "percentile": 100 * (n - TAIL_BEYOND) // n, "n": n}


# -- correctness ledger ------------------------------------------------------

class Tally:
    """One workload's samples and correctness record across passes."""

    def __init__(self, workload: str, identity: dict):
        self.workload = workload
        self.identity = identity
        self.passes: list = []
        self.run_us: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        #: run name -> digest of its first successful run
        self.reference: dict = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def add(self, result: dict, compare: bool = True) -> None:
        """Check every run of a pass. ``compare=False`` skips the
        cross-pass digest check (the cprofile pass runs a subset)."""
        if "crashed" in result:
            self.attempted += 1
            self.fail(result["crashed"])
            return
        seconds = instructions = 0.0
        for run in result["runs"]:
            self.attempted += 1
            name = run["name"]
            where = f"{self.workload}/{name} ({result['mode']})"
            if run["error"] is not None:
                self.fail(f"{where}: {run['error']}")
                continue
            expected = self.identity.get(name)
            if expected is not None and (
                    (run["cycles"], run["instructions"])
                    != (expected["cycles"], expected["instructions"])):
                self.fail(f"{where}: {run['cycles']} cycles / "
                          f"{run['instructions']} instructions, baseline "
                          f"{expected['cycles']} / "
                          f"{expected['instructions']}")
                continue
            if compare and self.reference.setdefault(
                    name, run["digest"]) != run["digest"]:
                self.fail(f"{where}: stats digest differs from the first "
                          f"pass")
                continue
            seconds += run["seconds"]
            instructions += run["instructions"]
            if result["mode"] == "plain":
                self.run_us.append(1e6 * run["seconds"]
                                   / run["instructions"])
        if result["mode"] == "plain" and seconds:
            self.passes.append({"mips": instructions / seconds / 1e6,
                                "rss_mb": result["peak_rss_mb"]})

    @property
    def sim_digest(self) -> str:
        joined = json.dumps(sorted(self.reference.items()))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]

    def end_to_end(self, setup: list) -> dict:
        if not self.passes:
            return {}
        return {
            "sim_mips": spread([p["mips"] for p in self.passes]),
            "run_us_per_instr_p50": spread(self.run_us),
            "run_us_per_instr_tail": tail(self.run_us),
            "setup_s": spread(setup),
            "peak_rss_mb": spread([p["rss_mb"] for p in self.passes]),
            "failed_frac": {"value": self.failed / max(1, self.attempted),
                            "n": self.attempted},
        }


def load_identity(workload: str, seed: int) -> dict:
    if seed != 0 or workload not in IDENTITY_WORKLOADS:
        return {}
    try:
        with open(ROOT / IDENTITY_FILE, encoding="utf-8") as handle:
            return json.load(handle)["kernels"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the cycle-identity baseline "
                         f"{IDENTITY_FILE}: {exc}")


# -- the two kinds of run -----------------------------------------------------

def end_to_end(workloads: list, seed: int, passes: dict) -> dict:
    """Untraced passes, round-robin across ``workloads``."""
    tallies = {w: Tally(w, load_identity(w, seed)) for w in workloads}
    setup = measure_setup()
    schedule = [w for index in range(max(passes.values()))
                for w in workloads if index < passes[w]]
    for workload in schedule:
        result = run_pass(workload, seed, "plain")
        tallies[workload].add(result)
        if "crashed" in result:
            break
    return {w: {"tally": tally, "metrics": tally.end_to_end(setup)}
            for w, tally in tallies.items()}


def per_layer(workload: str, seed: int) -> dict:
    """An untraced pass, a traced pass and a cprofile pass. The traced
    pass must reproduce the untraced pass's stats digests, which for
    ``dse-sweep`` compares serial points against ``jobs=2`` points."""
    tally = Tally(workload, load_identity(workload, seed))
    results = {}
    for mode in ("plain", "traced", "cprofile"):
        results[mode] = run_pass(workload, seed, mode)
        tally.add(results[mode], compare=mode != "cprofile")
        if "crashed" in results[mode]:
            return {"tally": tally, "metrics": {}}
    base, traced, profiled = (results["plain"], results["traced"],
                              results["cprofile"])

    counts = dict(traced["counts"])
    counts.update(profiled["counts"])
    # the traced pass sweeps serially: pool payloads come from the base
    counts["harness.sweeps.payload_bytes"] = \
        base["counts"]["harness.sweeps.payload_bytes"]
    own = traced["self_s"]
    # the pass and run spans only contain layers: their self time is the
    # part of the pass that no layer span accounts for
    unattributed = own.get("bench.pass", 0.0) + own.get("bench.run", 0.0)
    runs = [run for run in traced["runs"] if run["error"] is None]
    instructions = sum(run["instructions"] for run in runs)
    l1 = sum(run["l1_hits"] + run["l1_misses"] for run in runs)
    accesses = counts.get("memory.cache_access_calls", 0)
    metrics = {
        "workloads.build_s": own.get("workloads.build", 0.0),
        "frontend.compile_s": own.get("frontend.compile", 0.0),
        "passes.ddg_s": own.get("passes.ddg", 0.0),
        "passes.dae_slice_s": own.get("passes.dae_slice", 0.0),
        "trace.interpret_s": own.get("trace.interpret", 0.0),
        "harness.build_system_s": own.get("harness.build_system", 0.0),
        "harness.report_s": own.get("harness.report", 0.0),
        "telemetry.export_s": own.get("telemetry.export", 0.0),
        "sim.run_s": own.get("sim.run", 0.0),
        "sim.events_per_instr": (counts.get("sim.events", 0)
                                 / max(1, instructions)),
        "memory.mshr_retry_ratio": (counts.get("memory.mshr_retry_calls", 0)
                                    / max(1, accesses)),
        "memory.l1_miss_rate": (sum(run["l1_misses"] for run in runs)
                                / max(1, l1)),
        "memory.dram_requests": sum(run["dram_requests"] for run in runs),
        "bench.tracing_overhead": traced["wall_s"] / base["wall_s"],
        "bench.span_coverage": ((sum(own.values()) - unattributed)
                                / traced["wall_s"]),
    }
    for name, value in counts.items():
        metrics.setdefault(name, value)
    if workload == "dse-sweep":
        parallel = sum(run.get("sweep_seconds", 0.0)
                       for run in base["runs"])
        metrics["harness.sweeps.parallel_efficiency"] = (
            traced["duration_s"].get("harness.sweeps", 0.0)
            / (2 * parallel))
    return {"tally": tally, "metrics": metrics, "spans": traced["spans"]}


# -- output ------------------------------------------------------------------

def environment() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit,
            "date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds")}


def render_end_to_end(workload: str, entry: dict, spec: dict) -> str:
    tally = entry["tally"]
    lines = [f"{workload}: {len(tally.passes)} passes, {tally.attempted} "
             f"runs, {tally.failed} failed, sim_digest {tally.sim_digest}",
             f"  {'metric':<24}{'unit':<10}{'median':>12}{'q1':>12}"
             f"{'q3':>12}{'iqr%':>7}{'n':>5}"]
    for name, stat in entry["metrics"].items():
        unit = spec.get(name, {}).get("unit", "fraction")
        if "percentile" in stat:
            lines.append(f"  {name:<24}{unit:<10}{stat['value']:>12.5g}"
                         f"{'p' + str(stat['percentile']):>24}{'':>7}"
                         f"{stat['n']:>5}")
        elif "q1" in stat:
            iqr = (100 * (stat["q3"] - stat["q1"]) / stat["value"]
                   if stat["value"] else 0.0)
            lines.append(f"  {name:<24}{unit:<10}{stat['value']:>12.5g}"
                         f"{stat['q1']:>12.5g}{stat['q3']:>12.5g}"
                         f"{iqr:>7.1f}{stat['n']:>5}")
        else:
            lines.append(f"  {name:<24}{unit:<10}{stat['value']:>12.5g}"
                         f"{'':>31}{stat['n']:>5}")
    lines += [f"  ! {error}" for error in tally.errors]
    return "\n".join(lines)


def render_per_layer(workload: str, entry: dict, spec: dict) -> str:
    tally = entry["tally"]
    lines = [f"{workload} (traced): {tally.attempted} runs, {tally.failed} "
             f"failed, sim_digest {tally.sim_digest}"]
    for name, value in sorted(entry["metrics"].items()):
        unit = spec.get(name, {}).get("unit", "")
        lines.append(f"  {name:<40}{value:>14.6g} {unit}")
    lines += [f"  ! {error}" for error in tally.errors]
    return "\n".join(lines)


def result_line(results: dict, names: list, spec: dict) -> dict:
    """The JSON result line; metric names carry a ``workload/`` prefix
    when several workloads ran."""
    attempted = sum(r["tally"].attempted for r in results.values())
    failed = sum(r["tally"].failed for r in results.values())
    metrics = {}
    for workload, entry in results.items():
        prefix = f"{workload}/" if len(results) > 1 else ""
        for name in names:
            value = entry["metrics"].get(name)
            if isinstance(value, dict):
                value = value["value"]
            if value is not None:
                metrics[prefix + name] = {"value": value,
                                          "unit": spec[name]["unit"]}
    complete = all(name in entry["metrics"] for entry in results.values()
                   for name in names)
    return {"correct": failed == 0 and complete, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def write_trace_files(results: dict, seed: int) -> None:
    RESULTS.mkdir(exist_ok=True)
    for workload, entry in results.items():
        if "spans" in entry:
            path = RESULTS / f"trace-{workload}.json"
            path.write_text(json.dumps(
                {"workload": workload, "seed": seed,
                 "spans": entry["spans"]}), encoding="utf-8")


def write_ledger(env: dict, seed: int, e2e: dict, layers: dict,
                 text: str) -> None:
    document = {"env": env, "seed": seed, "workloads": {}}
    for workload in e2e:
        document["workloads"][workload] = {
            "sim_digest": e2e[workload]["tally"].sim_digest,
            "attempted": e2e[workload]["tally"].attempted,
            "failed": e2e[workload]["tally"].failed,
            "end_to_end": e2e[workload]["metrics"],
            "per_layer": layers[workload]["metrics"],
        }
    observed = layers.get("parboil-observed", {}).get("metrics", {})
    reference = layers.get("parboil-ooo", {}).get("metrics", {})
    if observed.get("sim.run_s") and reference.get("sim.run_s"):
        document["telemetry.enabled_cost"] = (observed["sim.run_s"]
                                              / reference["sim.run_s"])
        text += (f"\ntelemetry.enabled_cost (observed / parboil-ooo "
                 f"sim.run_s, both traced): "
                 f"{document['telemetry.enabled_cost']:.3f}\n")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "ledger.json").write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8")
    (RESULTS / "ledger.txt").write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(NOMINAL_PASS_S),
                        help="run only this workload (repeatable; "
                             "default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (seed 1 is held out for claims)")
    parser.add_argument("--seconds", type=int,
                        help="measurement budget (default: run_seconds "
                             "of BENCHMARK.json); sets the pass count "
                             "from each workload's nominal pass time")
    parser.add_argument("--passes", type=int,
                        help="run exactly this many passes per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--ledger", action="store_true",
                        help="end-to-end and traced runs; write "
                             "bench/results/ledger.{json,txt}")
    args = parser.parse_args(argv)
    workloads = args.workload or list(NOMINAL_PASS_S)
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").exists():
            raise BenchError(f"no simulator sources under {ROOT / 'src'}")
        spec_path = ROOT / "BENCHMARK.json"
        try:
            declared = json.loads(spec_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read {spec_path}: {exc}")
        seconds = args.seconds or declared["run_seconds"]
        passes = {w: args.passes or max(MIN_PASSES,
                                        round(seconds / NOMINAL_PASS_S[w]))
                  for w in workloads}
        spec = {m["name"]: m for m in declared["end_to_end"]
                + declared["per_layer"]}
        e2e_names = [m["name"] for m in declared["end_to_end"]]
        layer_names = [m["name"] for m in declared["per_layer"]]
        env = environment()
        text = [f"bench: seed {args.seed}, nproc {env['nproc']}, python "
                f"{env['python']}, commit {env['commit'][:12]}, "
                f"{env['date']}"]
        print(text[0], flush=True)
        e2e = layers = None
        if args.trace == 0 or args.ledger:
            e2e = end_to_end(workloads, args.seed, passes)
            text += [render_end_to_end(w, e2e[w], spec) for w in e2e]
        if args.trace == 1 or args.ledger:
            layers = {w: per_layer(w, args.seed) for w in workloads}
            text += [render_per_layer(w, layers[w], spec) for w in layers]
            write_trace_files(layers, args.seed)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()
    print("\n\n".join(text[1:]))
    if args.ledger:
        write_ledger(env, args.seed, e2e, layers, "\n\n".join(text) + "\n")
    if args.trace == 1:
        line = result_line(layers, layer_names, spec)
    else:
        line = result_line(e2e, e2e_names, spec)
        if args.ledger:
            traced = result_line(layers, layer_names, spec)
            line["correct"] = line["correct"] and traced["correct"]
            line["attempted"] += traced["attempted"]
            line["failed"] += traced["failed"]
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so a running pass is killed and
    # reaped with its sweep workers
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
