"""One fresh-process run of a workload, the same as one CLI invocation.

Usage: python3 bench/child.py SPEC_JSON

The spec names the package source directory, the experiment configs, the
report directory, whether to trace, and whether to stop after set-up. The
process builds the workload's flow from the first config (set-up), then
makes one `run_experiment` call per config at workers=1, and prints one
JSON line with its timings, peak RSS and the outcome of each call.

setup_s and run_s are CPU seconds of this process. The process has one
thread doing work and writes a few KB, so on an idle core they equal wall
time; on a shared host they leave out the time spent waiting for the core.
Wall times are kept beside them as setup_wall_s and run_wall_s.
"""

import time

C_START = time.process_time()
T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from anosovlab import experiments
    from anosovlab.errors import AnosovLabError
    from anosovlab.flow import SuspensionFlow

    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.install()

    configs = [experiments.ExperimentConfig.from_dict(c) for c in spec["configs"]]
    first = configs[0]
    matrix = experiments.build_matrix(first.matrix)
    SuspensionFlow(matrix, experiments.build_roof(first.roof, matrix.dim))
    t_setup, c_setup = time.perf_counter(), time.process_time()
    result = {"setup_s": c_setup - C_START, "setup_wall_s": t_setup - T_START}
    if spec["setup_only"]:
        print(json.dumps(result))
        return

    outcomes = []
    for idx, cfg in enumerate(configs):
        if recorder is not None:
            recorder.run_id = idx
        try:
            experiments.run_experiment(cfg, Path(spec["out"]) / str(idx), workers=1)
            outcomes.append(None)
        except AnosovLabError as err:
            outcomes.append(f"{type(err).__name__}: {err}")
    c_end, t_end = time.process_time(), time.perf_counter()
    result.update({
        "run_s": c_end - c_setup,
        "run_wall_s": t_end - t_setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": outcomes,
    })
    if recorder is not None:
        recorder.write(Path(spec["spans_out"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
