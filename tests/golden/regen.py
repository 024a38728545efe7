"""Rewrite the golden corpus: every case's stdout, stderr and exit code.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Each case runs in-process through `qentropy.cli.main`, with this directory
as the working directory (so input paths in messages are relative) and
QENT_SEED unset.  Its stdout and stderr, when not empty, go to
`out/<name>.out` and `out/<name>.err`, and its argv and exit code to one
line of `manifest.jsonl`, whose first line records the numpy version and
the machine.
`tests/test_golden.py` reruns every case and diffs.  A change that moves
a printed digit shows it in the diff of these files.

The corpus is exact for the recorded numpy and machine; it is not a
cross-platform promise.  No case exits 4: every asserted inequality is a
theorem, so only a faked violation reaches that code (see
`tests/test_cli.py::test_check_exit_4_only_for_asserted_ids`).
"""

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

_BENCH_IDS = ["ei1", "ei2", "ei3", "ei3a", "measurement_monotonicity"]


def _cases():
    cases = [
        ("entropy_text", ["entropy", "--spectrum", "inputs/mixed3.txt"]),
        ("entropy_csv", ["entropy", "--spectrum", "inputs/mixed3.txt", "--format", "csv"]),
        ("entropy_bits_padded", ["entropy", "--spectrum", "inputs/mixed3.txt", "--dim", "5",
                                 "--bits", "--precision", "8"]),
        ("entropy_matrix_csv", ["entropy", "--input", "inputs/state2.json", "--format", "csv"]),
        ("entropy_n16", ["entropy", "--spectrum", "inputs/dirichlet16.txt"]),
    ]
    spectra = {1: "inputs/pure.txt", 4: "inputs/mixed4.txt", 16: "inputs/dirichlet16.txt"}
    for mode in ("sphere", "basis"):
        for n, path in spectra.items():
            for workers in (1, 2):
                cases.append((f"mc_{mode}_n{n}_w{workers}",
                              ["mc", "--spectrum", path, "--mode", mode, "--samples", "3000",
                               "--workers", str(workers), "--seed", "7"]))
    cases += [
        ("pdensity_n4", ["pdensity", "--spectrum", "inputs/mixed4.txt", "--grid", "11"]),
        ("fig1", ["fig1", "--dim", "4", "--count", "12", "--max-n", "5", "--seed", "3"]),
        ("inset", ["inset", "--max-dim", "6"]),
        ("random_state", ["random-state", "--dim", "3", "--seed", "5"]),
        ("check_all", ["check", "--trials", "20", "--seed", "1"]),
        ("check_ei1", ["check", "ei1", "--trials", "20", "--seed", "1"]),
        ("check_ei3a", ["check", "ei3a", "--trials", "5"]),
        ("check_measurement", ["check", "measurement_monotonicity", "--trials", "20",
                               "--dim", "6", "--seed", "1"]),
        ("check_130", ["check", "--trials", "130", "--dims", "2x2,5x5", "--dim", "5",
                       "--seed", "2"]),
    ]
    # the check ops of the benchmark's experiments workload, two seeds each
    for trials in (1, 2, 3):
        for dim in (3, 4):
            for seed in (11, 12):
                cases.append((f"check_bench_t{trials}_d{dim}_s{seed}",
                              ["check", *_BENCH_IDS, "--trials", str(trials),
                               "--dims", "2x2,2x3,3x3", "--dim", str(dim), "--seed", str(seed)]))
    cases += [
        ("error_dims_not_nxm", ["check", "ei1", "--dims", "2", "--trials", "1"]),
        ("error_dim_below_length", ["entropy", "--spectrum", "inputs/mixed3.txt", "--dim", "2"]),
        ("error_degenerate", ["pdensity", "--spectrum", "inputs/uniform4.txt", "--grid", "5"]),
    ]
    return cases


def run_case(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call, run from
    this directory."""
    from qentropy.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def main():
    import numpy as np

    os.environ.pop("QENT_SEED", None)
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    for stale in outdir.iterdir():
        stale.unlink()
    records = []
    for name, argv in _cases():
        code, out, err = run_case(argv)
        for suffix, text in (("out", out), ("err", err)):
            if text:
                (outdir / f"{name}.{suffix}").write_text(text, encoding="utf-8", newline="\n")
        records.append({"name": name, "argv": argv, "exit": code})
    header = {"numpy": np.__version__, "python": platform.python_version(),
              "machine": platform.machine(), "system": platform.system()}
    lines = [json.dumps(header)] + [json.dumps(record) for record in records]
    (HERE / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8",
                                         newline="\n")
    print(f"wrote {len(records)} cases to {HERE}", file=sys.stderr)


if __name__ == "__main__":
    main()
