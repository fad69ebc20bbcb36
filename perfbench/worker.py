"""One workload in one process: set up, run whole rounds, check, report.

Started by ``run.py`` with the package's source on PYTHONPATH, the NumPy
backend forced and BLAS pinned to one thread.  Prints one JSON object as
its last line of output.

``--setup-only`` stops after set-up and reports its time.  Otherwise the
operations run in whole rounds until the next round would end after
``--seconds``; with ``--trace 1`` the first half of that time runs
untraced and the second half under ``layers.Tracer``.  Timings come
from the rounds of the second half; every round counts as attempted.
"""

import argparse
import json
import resource
import statistics
import sys
import time


def _rounds(ops, seconds, op_errors):
    """Run every op per round, until the next round would overrun.

    An op that raises one of ``op_errors`` (the package's own error
    types) yields the exception as its result; it counts as failed.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        times, results = [], []
        for op in ops:
            t_op = time.perf_counter()
            try:
                res = op.call()
            except op_errors as exc:
                res = exc
            times.append(time.perf_counter() - t_op)
            results.append(res)
        took = time.perf_counter() - t_round
        rounds.append((took, times, results))
        if time.perf_counter() - start + took > seconds:
            return rounds


def _verdicts(workload, results):
    return [(True, None) if isinstance(res, Exception)
            else workload.judge(op, res)
            for op, res in zip(workload.ops, results)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import workloads
    from robust_trees import RobustTreesError, kernels
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - start
    if kernels.BACKEND != "numpy":
        sys.exit(f"expected the NumPy backend, got {kernels.BACKEND}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import layers
    tracer = None
    plain = []
    if args.trace:
        plain = _rounds(workload.ops, args.seconds / 2, RobustTreesError)
        with layers.Tracer() as tracer:
            rounds = _rounds(workload.ops, args.seconds / 2,
                             RobustTreesError)
    else:
        rounds = _rounds(workload.ops, args.seconds, RobustTreesError)
    ran = plain + rounds

    verdicts = [_verdicts(workload, results) for _, _, results in ran]
    errors = []
    if any(v != verdicts[0] for v in verdicts):
        errors.append("rounds disagree on failures or objectives")
    done = [(op, res) for op, res, (failed, _) in
            zip(workload.ops, ran[0][2], verdicts[0]) if not failed]
    try:
        workload.check(done)
    except workloads.CheckFailed as exc:
        errors.append(str(exc))
    failed_ops = [op.label for op, (failed, _) in
                  zip(workload.ops, verdicts[0]) if failed]

    wall = [took for took, _, _ in rounds]
    report = {
        "correct": not errors,
        "attempted": len(workload.ops) * len(ran),
        "failed": len(failed_ops) * len(ran),
        "errors": errors,
        "failed_ops": failed_ops,
        "backend": kernels.BACKEND,
        "rounds": len(ran),
        "ops_per_round": len(workload.ops),
        "setup_s": setup_s,
        "wall_s": statistics.median(wall),
        "op_p50_s": statistics.median(t for _, times, _ in rounds
                                      for t in times),
        "objective_sum": sum(obj for failed, obj in verdicts[0]
                             if not failed),
        "op_s": {op.label: statistics.median(times[k] for _, times, _
                                             in rounds)
                 for k, op in enumerate(workload.ops)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
    }
    if tracer is not None:
        n = len(rounds)
        per_layer = {}
        for span in layers.SPANS:
            per_layer[f"{span}.calls"] = tracer.calls[span] / n
            per_layer[f"{span}.self_s"] = tracer.self_s[span] / n
        per_layer["exact.iterations"] = tracer.iterations / n
        per_layer["heuristics.rounds"] = tracer.rounds / n
        per_layer["trace.overhead_s"] = (
            statistics.median(wall)
            - statistics.median(t for t, _, _ in plain))
        report["layers"] = per_layer
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
