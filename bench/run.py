"""anosovlab benchmark: one workload as a closed loop of fresh processes.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Each run is one fresh Python process (bench/child.py), the same as one CLI
invocation: it builds the workload's flow (set-up) and then makes one
`run_experiment` call per config at workers=1. One caller, one core: the
next run starts when the previous one ends, until --seconds have passed.

--trace 0 reports the end-to-end metrics (setup_s, run_s, peak_rss_mb) as
medians over runs. setup_s and run_s are CPU seconds of the run's process,
scaled to a fixed host speed: the parent times a fixed reference work
before and after every run, and scales that run's times by
REFERENCE_NOMINAL_S over the mean of the two. --trace 1 runs each input set
untraced and then traced, and reports the per-layer metrics of the traced
runs plus the tracing overhead. Every report is checked against the
acceptance tolerances; the error rate is failed over attempted
run_experiment calls. --small shrinks every workload for the self-test.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record, with the environment and
every run's raw numbers, goes to .bench_build/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import numpy as np

import digests
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

MIN_RUNS = 3          # untraced runs per invocation, even past --seconds
MIN_SETUPS = 5        # set-up samples behind the setup_s median
PHASE_LIMIT_S = 150   # hard cap on the measuring phase, so a run exits in time
# The shared host switches between speeds about 1.5x apart, in phases of
# seconds to minutes. Over ten seeds on a 2-core sandbox, scaling each run by
# the reference work timed right around it cut the quartile spread of run_s
# from 0.232 to 0.133 on livshits_d2 and from 0.167 to 0.106 on pcf_d3.
REFERENCE_STEPS = 12000
REFERENCE_NOMINAL_S = 0.1   # reference CPU time that setup_s and run_s are scaled to
# Pin the numeric libraries to the one core a run is given.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def _per_layer_unit(name: str) -> str:
    if name == "trace.overhead_frac":
        return "ratio"
    if name == "experiments.report_bytes":
        return "bytes"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    return "count"


PER_LAYER_NAMES = list(tracing.summarize([], {})) + ["trace.overhead_frac"]
PER_LAYER_UNITS = {name: _per_layer_unit(name) for name in PER_LAYER_NAMES}


def reference_s() -> float:
    """CPU seconds of fixed work shaped like the package's hot loops.

    Each step is one exact companion-matrix step on dyadic rationals, a trig
    evaluation and a small numpy product. The work belongs to the benchmark
    and never changes with the package, so its time tracks only the host.
    """
    start = time.process_time()
    pt = (Fraction(1, 3), Fraction(3, 2**53), Fraction(5, 2**40))
    frame = np.eye(3)
    acc = 0.0
    for _ in range(REFERENCE_STEPS):
        pt = (pt[1], pt[2], (pt[0] - pt[2]) % 1)
        v = np.array([float(c) for c in pt])
        acc += math.cos(2 * math.pi * v[0]) + float(v @ frame @ v)
    return time.process_time() - start


def scaled(seconds: float, run: dict) -> float:
    """CPU seconds of a run at the host speed where the reference takes REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S / run["ref_s"]


def tree_sha256(*dirs: Path) -> str:
    """Content hash of the source files under `dirs`, ignoring bytecode."""
    h = hashlib.sha256()
    for top in dirs:
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def environment(src_sha: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "commit": commit,
        "src_sha256": src_sha,
    }


def digest_lines(src_sha: str) -> list[str]:
    """Compare the bundled configs' report digests with the reference.

    The digests depend only on the package source and the configs, so they
    are computed once per source tree and cached in .bench_build.
    """
    cache = BUILD / f"digests-{src_sha[:16]}.json"
    if not cache.exists():
        tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
        proc = subprocess.run(
            [sys.executable, str(HERE / "digests.py"),
             "--work", str(BUILD / "work" / f"digests-{os.getpid()}"), "--out", str(tmp)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
            env={**os.environ, **CHILD_ENV},
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return [f"digest check could not run: {tail[0]}"]
        os.replace(tmp, cache)
    reference = json.loads(digests.REFERENCE.read_text())
    return digests.compare(reference, json.loads(cache.read_text()))


class Runner:
    """Spawns the child runs of one workload, each in a fresh process."""

    def __init__(self, workload: str, seed: int, small: bool, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.small = small
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.last_ref_s = reference_s()

    def spawn(self, inputs: int, *, setup_only: bool = False, trace: bool = False) -> dict:
        """Run input set number `inputs` of the workload in a fresh process."""
        idx = self.count
        self.count += 1
        pairs = workloads.configs(self.workload, self.seed, inputs, self.small)
        spec = {
            "src": str(SRC),
            "configs": [cfg for cfg, _ in pairs],
            "out": str(self.work / f"run{idx}"),
            "trace": trace,
            "setup_only": setup_only,
            "spans_out": str(self.work / f"spans{idx}.json"),
        }
        spec_path = self.work / f"spec{idx}.json"
        spec_path.write_text(json.dumps(spec))
        result = {"inputs": inputs, "traced": trace, "out": spec["out"]}
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - started),
                env={**os.environ, **CHILD_ENV},
            )
        except subprocess.TimeoutExpired:
            result.update(crash="timed out", wall_s=time.perf_counter() - started)
            return result
        ref_before, self.last_ref_s = self.last_ref_s, reference_s()
        result["ref_s"] = (ref_before + self.last_ref_s) / 2
        result["wall_s"] = time.perf_counter() - started
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            result["crash"] = f"exit {proc.returncode}: {tail[0]}"
        else:
            result.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        if not setup_only:
            result["verdicts"] = check_run(result, [check for _, check in pairs])
            if trace and "crash" not in result:
                spans = json.loads(Path(spec["spans_out"]).read_text())
                result["layers"] = tracing.summarize(spans["spans"], spans["counts"])
        return result


def check_run(run: dict, checks: list) -> list[str | None]:
    """Failure message (None when correct) for each run_experiment call of a run."""
    if "crash" in run:
        return [run["crash"]] * len(checks)
    verdicts = []
    for idx, (error, check) in enumerate(zip(run["errors"], checks)):
        if error is not None:
            verdicts.append(error)
            continue
        out = Path(run["out"]) / str(idx)
        try:
            verdicts.append(workloads.check_manifest(out) or check(out))
        except (OSError, ValueError, KeyError, TypeError) as err:
            verdicts.append(f"unreadable report: {err!r}")
    return verdicts


def measure(workload: str, seed: int, seconds: int, trace: bool, small: bool,
            work: Path) -> dict:
    """Closed loop of runs for `seconds`, then set-up runs up to MIN_SETUPS.

    Run k uses input set k. With tracing, each input set runs untraced and
    then traced, so the overhead compares the same work.
    """
    runner = Runner(workload, seed, small, work, deadline=time.perf_counter() + PHASE_LIMIT_S)
    start = time.perf_counter()
    longest = 0.0
    runs: list[dict] = []
    k = 0

    def room_for(wall: float) -> bool:
        now = time.perf_counter()
        return now + wall <= runner.deadline and now - start + wall <= seconds

    while k < (1 if trace else MIN_RUNS) or room_for(longest):
        batch = [runner.spawn(k)]
        if trace:
            batch.append(runner.spawn(k, trace=True))
        runs += batch
        longest = max(longest, sum(r["wall_s"] for r in batch))
        k += 1
        if any(r.get("crash") == "timed out" for r in batch):
            break

    setups = [r for r in runs if not r["traced"] and "setup_s" in r]
    if not trace:
        setup_wall = 0.0
        while len(setups) < MIN_SETUPS and time.perf_counter() + setup_wall <= runner.deadline:
            probe = runner.spawn(len(setups), setup_only=True)
            setup_wall = max(setup_wall, probe["wall_s"])
            if "crash" in probe:
                break
            setups.append(probe)
    return {"runs": runs, "setups": setups, "measured_s": time.perf_counter() - start}


def metrics_of(record: dict, trace: bool) -> dict:
    ok = [r for r in record["runs"] if "crash" not in r]
    if not trace:
        values = {
            "setup_s": statistics.median(scaled(r["setup_s"], r) for r in record["setups"]),
            "run_s": statistics.median(scaled(r["run_s"], r) for r in ok),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    traced = [r for r in ok if r["traced"]]
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in PER_LAYER_NAMES if name != "trace.overhead_frac"
    }
    plain_s = {r["inputs"]: scaled(r["run_s"], r) for r in ok if not r["traced"]}
    values["trace.overhead_frac"] = statistics.median(
        scaled(r["run_s"], r) / plain_s[r["inputs"]] - 1.0
        for r in traced if r["inputs"] in plain_s
    )
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the self-test")
    args = parser.parse_args()
    if not (SRC / "anosovlab" / "__init__.py").is_file() or not workloads.CONFIGS.is_dir():
        print(f"no anosovlab source tree at {ROOT}: expected src/anosovlab and configs/",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    trace = bool(args.trace)

    src_sha = tree_sha256(SRC / "anosovlab", workloads.CONFIGS)
    env = environment(src_sha)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    digest_report = digest_lines(src_sha)
    for line in digest_report:
        print(line, flush=True)

    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, trace, args.small, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdicts = [v for r in record["runs"] for v in r["verdicts"]]
    attempted, failed = len(verdicts), sum(v is not None for v in verdicts)
    for message in sorted({v for v in verdicts if v is not None}):
        print(f"FAILED {message}", flush=True)
    runs = record["runs"]
    try:
        metrics = metrics_of(record, trace)
    except statistics.StatisticsError:
        print("no complete run to report", file=sys.stderr)
        return 1

    n_plain = sum(not r["traced"] for r in runs)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} runs ({n_plain} untraced), {len(record['setups'])} set-ups, "
          f"{record['measured_s']:.1f} s measured", flush=True)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}", flush=True)
    if not trace:
        ok = [r for r in runs if "crash" not in r]
        print(f"unscaled: setup_s {statistics.median(r['setup_s'] for r in record['setups'])!r} s, "
              f"run_s {statistics.median(r['run_s'] for r in ok)!r} s, reference "
              f"{statistics.median(r['ref_s'] for r in record['setups'] + ok)!r} s "
              f"(scaled to {REFERENCE_NOMINAL_S} s)", flush=True)
    print(f"error_rate {failed / attempted!r} ({failed}/{attempted} run_experiment calls)",
          flush=True)

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps({
        "args": vars(args), "env": env, "digests": digest_report,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k != "out"} for r in runs],
        "setups": [{k: r[k] for k in ("setup_s", "setup_wall_s", "ref_s")}
                   for r in record["setups"]],
    }, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
