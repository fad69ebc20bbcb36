#!/usr/bin/env python3
"""End-to-end benchmark of robust_trees, from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: certify, heuristic, corr, refine, or ``all`` for each in turn.
Every workload runs in its own single-threaded process (``worker.py``)
against the package source in ``src/``, with the NumPy kernel backend.
Set-up is timed in that process and in ``SETUP_PROBES`` more that stop
after set-up; ``setup_s`` is the median.  With ``--trace 0`` the last
line of output is one JSON object with the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``layers.Tracer``.  The full
report goes to ``perfbench/out/``.  The exit code is 0 when the run
finished, whether or not its checks passed (``"correct"`` says that).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "heuristic", "corr", "refine")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "objective_sum": "cost", "peak_rss_mb": "MB"}
SETUP_PROBES = 8
DEADLINE_S = 170.0  # per workload, set-up probes included
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env():
    env = dict(os.environ)
    env.pop("ROBUST_TREES_WORKERS", None)
    env.update({var: "1" for var in _THREAD_VARS})
    env["ROBUST_TREES_BACKEND"] = "numpy"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args, timeout):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
        env=_child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    # one probe more than kept: the first also fills the bytecode cache
    for _ in range(SETUP_PROBES + 1):
        probe = _worker(common + ["--seconds", "0", "--setup-only"],
                        deadline - time.monotonic())
        setups.append(probe["setup_s"])
    report = _worker(common + ["--seconds", str(seconds),
                               "--trace", str(trace)],
                     deadline - time.monotonic())
    report["setup_s"] = statistics.median(setups[1:] + [report["setup_s"]])
    report.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    if trace:
        metrics = {key: {"value": value,
                         "unit": "s" if key.endswith("_s") else "count"}
                   for key, value in report["layers"].items()}
    else:
        metrics = {key: {"value": report[key], "unit": unit}
                   for key, unit in END_TO_END.items()}
    return report, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "robust_trees" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'robust_trees'}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        report, found = run_workload(name, args.seed, args.seconds,
                                     args.trace, time.monotonic() + DEADLINE_S)
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"{name}: backend={report['backend']} rounds={report['rounds']}"
              f" ops/round={report['ops_per_round']} correct="
              f"{report['correct']} failed={report['failed']}/"
              f"{report['attempted']} report={path.relative_to(ROOT)}")
        for error in report["errors"]:
            print(f"  check failed: {error}")
        for key, metric in found.items():
            print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
        correct = correct and report["correct"]
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
