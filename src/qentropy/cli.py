"""Command-line front end.

Each command takes only the options it reads.  --bits and --precision
set the units and digits of entropy and mc, --format is entropy's and
--workers is mc's; pdensity, fig1, inset, check and random-state write
to --output, else stdout.  The random commands (mc, fig1, check,
random-state) are deterministic: the RNG seed comes from --seed, else the
QENT_SEED environment variable, else a fixed default (0x5EED).  Machine
entropy is only used when --nondeterministic is passed without --seed.
Exit codes: 0 ok, 2 parse error, 3 validation error, 4 inequality
violation certificate emitted, 5 degenerate spectrum: all eigenvalues are
equal to rounding, so the outcome weight is a point mass and has no
density P(s).
"""

import argparse
import contextlib
import math
import os
import secrets
import sys

import numpy as np

from . import experiments, io
from .entropy import absolute_entropy, density_curve
from .errors import DegenerateSpectrumError, DimensionMismatchError, QentropyError
from .montecarlo import mc_entropy_estimate
from .rng import DEFAULT_SEED, RngStream
from .states import Spectrum, spectrum_from_values

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VIOLATION = 4
EXIT_DEGENERATE = 5

# Below this stderr relative to max(|mean|, 1), the MC spread is rounding
# noise (every sample is equal in exact arithmetic, as for I/N or a pure
# state in basis mode) and lies under the ~1e-13 error of S_F, so a z-score
# would compare noise with noise.
_Z_MIN_RELATIVE_STDERR = 1e-12

# The largest dimension of a dense matrix a command may be asked to build:
# a complex matrix of dimension 8192 takes 2^30 bytes.  It also caps the
# --dim a spectrum is zero-padded to, and any state of pdensity (two N x N
# B-spline arrays) and mc --mode basis (an N x N draw per sample).  Checked
# before anything that size is allocated, so that an absurd dimension gets
# a typed error, not a MemoryError.
_MAX_MATRIX_DIM = 8192
# The same 2^30 bytes bound fig1's --dim (under 64 floats per entry: the S_F
# terms and the draw) and pdensity's --grid (the grid and its densities).
_MAX_FIG1_DIM = 16 * _MAX_MATRIX_DIM ** 2 // (64 * 8)
_MAX_GRID = 16 * _MAX_MATRIX_DIM ** 2 // (2 * 8)

# pdensity formats this many rows per write, so memory stays flat in --grid
_CSV_BLOCK_ROWS = 4096


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None and (env := os.environ.get("QENT_SEED")) is not None:
        try:
            seed = int(env, 0)
        except ValueError as exc:
            raise _CliError(f"QENT_SEED is not an integer: {env!r}", EXIT_PARSE) from exc
    if seed is None:
        return secrets.randbits(63) if args.nondeterministic else DEFAULT_SEED
    if seed < 0:
        raise _CliError(f"the seed must be a non-negative integer, got {seed}", EXIT_PARSE)
    return seed


def _load_spectrum(args) -> Spectrum:
    """Input state as a spectrum: from a matrix file or a zero-padded spectrum file."""
    if args.input and args.spectrum:
        raise _CliError("give either --input or --spectrum, not both", EXIT_PARSE)
    if args.input and args.dim is not None:
        raise _CliError("--dim pads a --spectrum only", EXIT_PARSE)
    if args.input:
        return io.load_density(args.input).spectrum
    if args.spectrum:
        spec = io.load_spectrum(args.spectrum)
        dim = spec.dim if args.dim is None else args.dim
        if dim < spec.dim:
            raise _CliError(f"--dim {dim} smaller than spectrum length {spec.dim}",
                            EXIT_VALIDATION)
        if dim > spec.dim:
            _require_matrix_fits("--dim", dim)
            padded = np.concatenate([spec.values, np.zeros(dim - spec.dim)])
            spec = spectrum_from_values(padded)
        return spec
    raise _CliError("an input state is required (--input or --spectrum)", EXIT_PARSE)


def _require_at_least(flag: str, value: int, low: int):
    if value < low:
        raise _CliError(f"{flag} must be at least {low}, got {value}", EXIT_PARSE)


def _require_fits(what: str, size: int, limit: int, held: str):
    if size > limit:
        raise DimensionMismatchError(f"{what} {size} is above {limit}: {held} would take "
                                     f"over 1 GiB")


def _require_matrix_fits(what: str, dim: int):
    _require_fits(what, dim, _MAX_MATRIX_DIM, "its dense complex matrix")


def _fmt(args, value: float) -> str:
    if args.bits:
        value = value / math.log(2)
    return f"{value:.{args.precision}g}"


def _out_stream(args):
    if args.output:
        return open(args.output, "w", encoding="utf-8", newline="\n")
    return contextlib.nullcontext(sys.stdout)


def cmd_entropy(args) -> int:
    _require_at_least("--precision", args.precision, 0)
    spec = _load_spectrum(args)
    report = absolute_entropy(spec)
    unit = "bits" if args.bits else "nats"
    if args.format == "csv":
        print("dim,s_h,s0,s_f,s_total,unit")
        print(f"{spec.dim},{_fmt(args, report.s_h)},{_fmt(args, report.s0)},"
              f"{_fmt(args, report.s_f)},{_fmt(args, report.s_total)},{unit}")
    else:
        print(f"dim      = {spec.dim}")
        print(f"S_H      = {_fmt(args, report.s_h)} {unit}   (von Neumann)")
        print(f"S_0(N)   = {_fmt(args, report.s0)} {unit}   (minimum uncertainty)")
        print(f"S_F      = {_fmt(args, report.s_f)} {unit}   (excess statistical)")
        print(f"S        = {_fmt(args, report.s_total)} {unit}   (absolute)")
    return 0


def cmd_mc(args) -> int:
    _require_at_least("--precision", args.precision, 0)
    _require_at_least("--workers", args.workers, 1)
    spec = _load_spectrum(args)
    if args.mode == "basis":
        _require_matrix_fits("the state's dimension", spec.dim)
    seed = _resolve_seed(args)
    est = mc_entropy_estimate(spec, args.samples, RngStream(seed), mode=args.mode,
                              workers=args.workers)
    closed = absolute_entropy(spec).s_total
    if est.stderr > _Z_MIN_RELATIVE_STDERR * max(abs(est.mean), 1.0):
        z = f"{(est.mean - closed) / est.stderr:.4f}"
    else:
        z = "n/a"
    unit = "bits" if args.bits else "nats"
    print(f"mean     = {_fmt(args, est.mean)} {unit}")
    print(f"stderr   = {_fmt(args, est.stderr)}")
    print(f"samples  = {est.samples}")
    print(f"seed     = {est.seed}")
    print(f"closed   = {_fmt(args, closed)} {unit}")
    print(f"z        = {z}")
    return 0


def cmd_pdensity(args) -> int:
    _require_at_least("--grid", args.grid, 1)
    _require_fits("--grid", args.grid, _MAX_GRID, "the grid and its densities")
    spec = _load_spectrum(args)
    _require_matrix_fits("the state's dimension", spec.dim)
    curve = density_curve(spec, args.grid)
    with _out_stream(args) as out:
        out.write("s,p\n")
        for start in range(0, args.grid, _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            flat = np.column_stack((curve.grid[rows], curve.densities[rows])).ravel()
            out.write("%.12g,%.12g\n" * (len(flat) // 2) % tuple(flat.tolist()))
    return 0


def cmd_fig1(args) -> int:
    _require_at_least("--count", args.count, 0)
    _require_at_least("--max-n", args.max_n, 0)
    _require_fits("--dim", args.dim, _MAX_FIG1_DIM, "the S_F terms of one spectrum")
    seed = _resolve_seed(args)
    curve = experiments.fig1_uniform_curve(args.max_n)
    dots = experiments.fig1_random_mixtures(args.dim, args.count, RngStream(seed))
    with _out_stream(args) as out:
        out.write("label,n,dim,s_h,s_f\n")
        for row in curve + dots:
            out.write(f"{row.label},{row.n},{row.dim},{row.s_h:.12g},{row.s_f:.12g}\n")
    return 0


def cmd_inset(args) -> int:
    _require_at_least("--max-dim", args.max_dim, 0)
    with _out_stream(args) as out:
        out.write("dim,s0_exact,s0_asymptotic\n")
        for n, exact, asym in experiments.fig1_inset(args.max_dim):
            out.write(f"{n},{exact:.12g},{asym:.12g}\n")
    return 0


def _parse_dims(text: str) -> list[tuple[int, int]]:
    """--dims "NxM,..." as (N, M) pairs; any other form is a parse error."""
    dims = []
    for entry in text.split(","):
        parts = entry.split("x")
        try:
            if len(parts) != 2:
                raise ValueError(f"{entry!r} is not of the form NxM")
            n, m = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise _CliError(f"bad --dims value {text!r}: {exc}", EXIT_PARSE) from exc
        if n < 1 or m < 1:
            raise DimensionMismatchError(f"--dims entry {entry!r} has a dimension below 1")
        _require_matrix_fits(f"--dims entry {entry!r}: product", n * m)
        dims.append((n, m))
    return dims


def cmd_check(args) -> int:
    _require_at_least("--trials", args.trials, 0)
    seed = _resolve_seed(args)
    dims = _parse_dims(args.dims)
    known = set(experiments.CHECK_IDS)
    wanted = set(args.ids) if args.ids else known
    if wanted - known:
        raise _CliError(f"unknown check ids: {sorted(wanted - known)}", EXIT_PARSE)
    # only measurement_monotonicity reads --dim
    if "measurement_monotonicity" in wanted:
        _require_matrix_fits("--dim", args.dim)
    reports = experiments.run_checks(wanted, args.trials, dims, args.dim, RngStream(seed))
    with _out_stream(args) as out:
        out.write("inequality,trials,violations,worst_margin\n")
        for r in reports:
            out.write(f"{r.inequality_id},{r.trials},{r.violations},{r.worst_margin:.12g}\n")
    for r in reports:
        for c in r.certificates:
            print(f"VIOLATION {c.inequality_id} tag={c.tag} trial={c.trial} "
                  f"seed={c.seed} stream={c.stream_id} dims={c.dims} "
                  f"lhs={c.lhs:.12g} rhs={c.rhs:.12g} margin={c.margin:.12g}",
                  file=sys.stderr)
    asserted = known - experiments.EXPLORATORY
    violated = any(r.violations for r in reports if r.inequality_id in asserted)
    return EXIT_VIOLATION if violated else 0


def cmd_random_state(args) -> int:
    _require_matrix_fits("--dim", args.dim)
    seed = _resolve_seed(args)
    gen = RngStream(seed).generator()
    rho = experiments.random_density_hs(args.dim, gen)
    with _out_stream(args) as out:
        out.write(io.density_to_text(rho))
    return 0


def _add_state_args(p):
    p.add_argument("--input", help="density-matrix JSON file")
    p.add_argument("--spectrum", help="whitespace-separated spectrum file")
    p.add_argument("--dim", type=int, default=None,
                   help="pad a spectrum with zeros up to this dimension")


def _add_seed_args(p):
    p.add_argument("--seed", type=lambda s: int(s, 0), default=None)
    p.add_argument("--nondeterministic", action="store_true",
                   help="allow machine entropy when --seed is absent")


def _add_unit_args(p):
    p.add_argument("--precision", type=int, default=12,
                   help="significant digits in printed values")
    p.add_argument("--bits", action="store_true", help="report entropies in bits")


def _add_output_arg(p):
    p.add_argument("--output", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qentropy",
                                 description="Basis-averaged information entropy "
                                             "of quantum states")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="closed-form entropy report")
    _add_state_args(p)
    _add_unit_args(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("mc", help="Monte-Carlo estimate of the absolute entropy")
    _add_state_args(p)
    _add_seed_args(p)
    _add_unit_args(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--mode", choices=("sphere", "basis"), default="sphere")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("pdensity", help="outcome-weight density P(s) as CSV")
    _add_state_args(p)
    p.add_argument("--grid", type=int, default=1001)
    _add_output_arg(p)
    p.set_defaults(func=cmd_pdensity)

    p = sub.add_parser("fig1", help="uniform curve and random-mixture scatter")
    _add_seed_args(p)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--max-n", type=int, default=64)
    _add_output_arg(p)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("inset", help="minimum uncertainty entropy vs dimension")
    p.add_argument("--max-dim", type=int, default=50)
    _add_output_arg(p)
    p.set_defaults(func=cmd_inset)

    p = sub.add_parser("check", help="inequality suites and conjecture scans")
    _add_seed_args(p)
    p.add_argument("ids", nargs="*",
                   help=f"subset of {{{', '.join(experiments.CHECK_IDS)}}} (default: all)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--dims", default="2x2,2x3,3x3",
                   help="comma-separated NxM subsystem dimensions")
    p.add_argument("--dim", type=int, default=3,
                   help="dimension for the measurement scan")
    _add_output_arg(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("random-state", help="sample a Hilbert-Schmidt random state")
    _add_seed_args(p)
    p.add_argument("--dim", type=int, required=True)
    _add_output_arg(p)
    p.set_defaults(func=cmd_random_state)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except io.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateSpectrumError as exc:
        print(f"degenerate spectrum: {exc}\n"
              f"hint: the entropy and mc commands take this spectrum", file=sys.stderr)
        return EXIT_DEGENERATE
    except QentropyError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
