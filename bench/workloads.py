"""Seeded inputs of the three workloads, with the reference values to check.

A workload runs rounds of operations.  The make-up of a round is fixed:
which command, which dimension, which flags.  The workload seed and the
round's index move only the values (spectra, unitaries, per-op seeds), so
every round does the same kinds of work on fresh inputs, and a run averages
over many draws.  Nothing here imports qentropy; the program receives only
the files and arguments built here.
"""

import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import checks
import oracle

WORKLOADS = ("reports", "experiments", "oracles")

# Small spectra (N <= 6 and the ties) keep every relative gap between
# distinct nonzero eigenvalues at or above this floor.  Closer gaps send the
# program's float divided-difference table off by far more than 1e-9
# (see the FOUND lines in CHANGES.md), which is a known fault, not a seed
# accident.
GAP_FLOOR = 0.1

CHECK_IDS = ("ei1", "ei2", "ei3", "ei3a", "measurement_monotonicity")
CHECK_DIMS = "2x2,2x3,3x3"
FIG1_MAX_N = 64


@dataclass
class Op:
    """One operation of a round: a CLI call, or a library call when argv is None."""

    kind: str
    argv: list | None
    expect: dict
    check: Callable[[dict, tuple, list], list[str]]
    values: list | None = None  # spectrum of a library call


def relative_gaps(values) -> np.ndarray:
    """Gaps between adjacent distinct nonzero values over max(value, 1/N)."""
    v = np.unique(np.asarray(values, dtype=float))
    v = v[v > 0.0][::-1]
    if len(v) < 2:
        return np.array([np.inf])
    return (v[:-1] - v[1:]) / np.maximum(v[:-1], 1.0 / len(values))


def separated_dirichlet(gen, n: int) -> np.ndarray:
    """Flat Dirichlet draw, redrawn until every relative gap is >= GAP_FLOOR."""
    while True:
        v = gen.dirichlet(np.ones(n))
        if relative_gaps(v).min() >= GAP_FLOOR:
            return v


def tiny_spectrum(gen, n: int, tiny: int) -> np.ndarray:
    """n - tiny separated values plus `tiny` eigenvalues in [1e-14, 1e-6]."""
    big = separated_dirichlet(gen, n - tiny)
    small = 10.0 ** gen.uniform(-14.0, -6.0, tiny)
    v = np.concatenate([big, small])
    return v / v.sum()


def tied_spectrum(gen, n: int) -> np.ndarray:
    """Exact ties: d < n separated levels, each repeated, summing to 1."""
    d = int(gen.integers(2, n))
    mults = np.ones(d, dtype=int)
    for k in gen.integers(0, d, n - d):
        mults[k] += 1
    while True:
        levels = separated_dirichlet(gen, d) / mults
        if relative_gaps(levels).min() >= GAP_FLOOR:
            return np.repeat(levels, mults)


def haar_unitary(gen, n: int) -> np.ndarray:
    z = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def density_json(gen, values) -> str:
    """qentropy-density-matrix JSON of U diag(values) U^dagger for Haar U."""
    u = haar_unitary(gen, len(values))
    m = (u * np.asarray(values, dtype=float)) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    pairs = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return json.dumps({"format": "qentropy-density-matrix", "version": 1,
                       "dim": len(values), "matrix": pairs})


def spectrum_text(values) -> str:
    return " ".join(repr(float(v)) for v in values) + "\n"


def entropy_expect(values, dim: int, bits: bool = False, csv: bool = False,
                   uniform: bool = False) -> dict:
    """Reference values of an `entropy` report."""
    return {"dim": dim, "bits": bits, "csv": csv,
            "sf": oracle.excess_integral(values), "sh": oracle.shannon(values),
            "s0": oracle.s0(dim), "uniform": uniform,
            "pure": int(np.count_nonzero(values)) == 1}


class _Builder:
    """Writes input files into `workdir` and collects the ops of a round."""

    def __init__(self, workdir: str, seed: int, workload: str, index: int):
        self.workdir = workdir
        self.ops: list[Op] = []
        self.gen = np.random.default_rng([seed, WORKLOADS.index(workload), index])

    def op_seed(self) -> int:
        return int(self.gen.integers(1, 2**31))

    def write(self, text: str, suffix: str) -> str:
        path = os.path.join(self.workdir, f"in{len(self.ops):03d}{suffix}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return path

    def add(self, op: Op) -> int:
        self.ops.append(op)
        return len(self.ops) - 1


_VARIANTS = ((), ("--format", "csv"), ("--bits",), ("--format", "csv", "--bits"))


def _entropy_op(b: _Builder, kind: str, values, dim=None, as_json=False):
    n = len(values)
    flags = _VARIANTS[len(b.ops) % len(_VARIANTS)]
    if as_json:
        argv = ["entropy", "--input", b.write(density_json(b.gen, values), ".json")]
    else:
        argv = ["entropy", "--spectrum", b.write(spectrum_text(values), ".txt")]
    if dim is not None:
        argv += ["--dim", str(dim)]
    argv += list(flags)
    expect = entropy_expect(values, dim or n, bits="--bits" in flags,
                            csv="csv" in flags, uniform=kind == "entropy.uniform")
    b.add(Op(kind, argv, expect, checks.check_entropy))


def build_reports(b: _Builder):
    g = b.gen
    for n in (2, 3, 4, 5, 6, 2, 3, 4, 5, 6):
        _entropy_op(b, "entropy.flat", separated_dirichlet(g, n))
    for n in (2, 3, 4, 5, 6):
        _entropy_op(b, "entropy.padded", separated_dirichlet(g, n), dim=2 * n + 1)
    for n, tiny in ((3, 1), (4, 2), (5, 1), (6, 2)):
        _entropy_op(b, "entropy.tiny", tiny_spectrum(g, n, tiny))
    for n in (3, 4, 5, 6):
        _entropy_op(b, "entropy.ties", tied_spectrum(g, n))
    for n in (2, 5, 32, 64):
        _entropy_op(b, "entropy.uniform", np.full(n, 1.0 / n))
    _entropy_op(b, "entropy.uniform_padded", np.full(3, 1.0 / 3), dim=8)
    _entropy_op(b, "entropy.pure", [1.0, 0.0, 0.0])
    _entropy_op(b, "entropy.pure", [1.0], dim=40)
    _entropy_op(b, "entropy.pure", [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    for n in (8, 12, 16, 20, 24, 24):
        _entropy_op(b, "entropy.sparse", g.dirichlet(np.full(n, 0.1)))
    for n in (32, 36, 40, 44, 48, 52, 56, 60, 64, 64):
        _entropy_op(b, "entropy.large", g.dirichlet(np.ones(n)))
    for n in (2, 3, 4, 5, 6):
        _entropy_op(b, "entropy.json", separated_dirichlet(g, n), as_json=True)
    for n in (32, 48, 64):
        _entropy_op(b, "entropy.json_large", g.dirichlet(np.ones(n)), as_json=True)


def build_experiments(b: _Builder):
    margin = float(oracle.min_harmonic_margin())
    for trials, dim in ((1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (3, 4)):
        argv = ["check", *CHECK_IDS, "--trials", str(trials), "--dims", CHECK_DIMS,
                "--dim", str(dim), "--seed", str(b.op_seed())]
        expect = {"trials": trials, "ndims": len(CHECK_DIMS.split(",")),
                  "ei3a_margin": margin}
        b.add(Op("check", argv, expect, checks.check_check))
    for dim in (6, 8, 6, 8, 6, 8):
        count = 40
        argv = ["fig1", "--dim", str(dim), "--count", str(count),
                "--max-n", str(FIG1_MAX_N), "--seed", str(b.op_seed())]
        expect = {"dim": dim, "count": count, "max_n": FIG1_MAX_N,
                  "s0": [oracle.s0(n) for n in range(1, FIG1_MAX_N + 1)]}
        b.add(Op("fig1", argv, expect, checks.check_fig1))


def _mc_expect(b: _Builder, n: int, samples: int):
    values = separated_dirichlet(b.gen, n)
    expect = {"s_total": oracle.s0(n) + oracle.excess_integral(values),
              "samples": samples, "seed": b.op_seed()}
    argv = ["mc", "--spectrum", b.write(spectrum_text(values), ".txt"),
            "--samples", str(samples), "--seed", str(expect["seed"])]
    return argv, expect


def build_oracles(b: _Builder):
    # sample counts and grid sizes rise with N, so op costs form a ladder
    # rather than a few clusters
    for n, samples in ((2, 60_000), (3, 80_000), (4, 100_000), (5, 120_000), (6, 140_000)):
        argv, expect = _mc_expect(b, n, samples)
        first = b.add(Op("mc.sphere", argv + ["--workers", "1"], expect, checks.check_mc))
        # same seed at another worker count: the output must be byte-identical
        b.add(Op("mc.sphere", argv + ["--workers", "2"], {**expect, "twin": first},
                 checks.check_mc))
    for n, samples in ((3, 3000), (4, 4000), (5, 5000), (6, 6000)):
        argv, expect = _mc_expect(b, n, samples)
        b.add(Op("mc.basis", argv + ["--mode", "basis"], expect, checks.check_mc))
    for n, grid in ((2, 2001), (3, 2251), (4, 2501), (5, 2751), (6, 3001)):
        values = separated_dirichlet(b.gen, n)
        argv = ["pdensity", "--spectrum", b.write(spectrum_text(values), ".txt"),
                "--grid", str(grid)]
        b.add(Op("pdensity", argv, pdensity_expect(values, grid), checks.check_pdensity))
    # quadrature calls are over half of the round, so op_p50_ms is their latency
    for n in (2, 3, 4, 5, 6) * 8:
        values = separated_dirichlet(b.gen, n)
        expect = {"s_total": oracle.s0(n) + oracle.excess_integral(values)}
        b.add(Op("quadrature", None, expect, checks.check_quadrature,
                 values=[float(v) for v in values]))


def pdensity_expect(values, grid: int) -> dict:
    s = np.linspace(0.0, 1.0, grid)
    return {"values": [float(v) for v in values], "s": s,
            "ref": oracle.density_bspline(values, s)}


def build_round(workload: str, seed: int, index: int, workdir: str) -> list[Op]:
    """The ops of round `index` of `workload`, with their input files in workdir."""
    b = _Builder(workdir, seed, workload, index)
    {"reports": build_reports, "experiments": build_experiments,
     "oracles": build_oracles}[workload](b)
    return b.ops
