"""Benchmark of qentropy: one workload, one process, one client.

    python3 bench/run.py --workload reports --seed 1 --seconds 20 --trace 0

Run from a qentropy checkout; the package is imported from its `src`
directory.  The workload's operations are built from the seed and
run back to back (a closed loop), in whole rounds until the ops have taken
--seconds and at least MIN_OPS ops are done.  Each round has the same make-up
on fresh inputs from (seed, round).  Every op's output is checked against
the oracles of oracle.py.  The last line of stdout is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

import os

if __name__ == "__main__":
    # one BLAS thread, fixed before numpy is first imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, build_round  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_OPS = 200  # so that at least ten ops lie beyond the 95th percentile
SETUP_REPEATS = 11
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p95_ms", "ms"), ("peak_rss_mb", "MB"))
_SETUP_CODE = ("import time; t = time.perf_counter(); import qentropy, qentropy.cli; "
               "print(time.perf_counter() - t)")


def measure_setup() -> float:
    """Median time of `import qentropy, qentropy.cli` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def execute(op):
    """Run one op; returns (exit code, stdout, stderr), or None if it raised."""
    from qentropy import cli, entropy, states

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is not None:
                code = cli.main(op.argv)
            else:
                spec = states.spectrum_from_values(op.values)
                print(repr(entropy.entropy_by_quadrature(spec, len(op.values))))
                code = 0
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # the op failed; report it and keep the loop running
        print(f"op {op.kind} {op.argv} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return None
    return code, out.getvalue(), err.getvalue()


def run_loop(workload: str, seed: int, seconds: float, workdir: str,
             tracer: Tracer | None):
    """Whole rounds until `seconds` of op time and MIN_OPS ops; every output checked.

    Building a round's inputs and checking its outputs are outside the
    timed phase.
    """
    times, problems = [], []
    failed = rounds = 0
    timed = 0.0
    while timed < seconds or len(times) < MIN_OPS:
        ops = build_round(workload, seed, rounds, workdir)
        results = []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.request = rounds * len(ops) + i
            t0 = time.perf_counter()
            results.append(execute(op))
            times.append(time.perf_counter() - t0)
        timed += time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        failed += results.count(None)
        problems += check_outputs(ops, results, rounds)
        rounds += 1
    return times, problems, failed, rounds, timed, len(ops)


def check_outputs(ops, results, index: int) -> list[str]:
    problems = []
    for i, (op, result) in enumerate(zip(ops, results)):
        if result is not None:
            problems += [f"round {index} op {i} ({op.kind} {op.argv or op.values}): {p}"
                         for p in op.check(op.expect, result, results)]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qentropy" / "__init__.py").is_file():
        print(f"error: no qentropy package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qentropy.cli  # noqa: F401  (loads every module the tracer patches)

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        setup_s = None if args.trace else measure_setup()
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.recording = True
        times, problems, failed, rounds, elapsed, per_round = run_loop(
            args.workload, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    ops_per_s = len(times) / elapsed
    print(f"{args.workload} seed={args.seed}: {rounds} rounds of {per_round} ops, "
          f"{len(times)} ops in {elapsed:.2f} s, {ops_per_s:.2f} ops/s, "
          f"{len(problems)} check failures", file=sys.stderr)
    if tracer is None:
        ms = np.asarray(times) * 1e3
        values = (setup_s, ops_per_s, float(np.percentile(ms, 50)),
                  float(np.percentile(ms, 95)),
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics = {name: (v, unit) for (name, unit), v in zip(END_TO_END, values)}
    else:
        metrics = tracer.metrics(rounds)
    result = {"correct": not problems, "attempted": len(times), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=elapsed,
                  rounds=rounds, ops_per_round=per_round, problems=problems,
                  machine=platform.machine(), python=platform.python_version(),
                  numpy=np.__version__, cpus=os.cpu_count())
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for request, name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"request": request, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
