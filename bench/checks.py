"""Checks of one operation's output against reference values.

Each check takes the op's `expect` dict (built in workloads.py from the
oracles), the op's result `(exit_code, stdout, stderr)` and the results of
the whole round (None for an op that raised), and returns a list of
problems; an empty list means the output is correct.  The checks
compare against computations made apart from the program, or against
properties the method must have, never against saved program output.
"""

import math

import numpy as np

from oracle import EXCESS_BOUND

SF_TOL = 1e-9  # S_F and S against the integral oracle, in nats
PRINT_TOL = 1e-10  # relative; values are printed to 12 significant digits
MC_SIGMAS = 6.0
KNOT_CLEARANCE = 1e-9  # grid points this close to an eigenvalue are not compared


def _close(a: float, b: float, tol: float = PRINT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _parse_entropy(out: str, csv: bool) -> dict:
    if csv:
        header, row = out.strip().splitlines()
        if header != "dim,s_h,s0,s_f,s_total,unit":
            raise ValueError(f"unexpected CSV header {header!r}")
        dim, s_h, s0, s_f, s_total, unit = row.split(",")
    else:
        fields = {}
        for line in out.strip().splitlines():
            key, _, rest = line.partition("=")
            fields[key.strip()] = rest.split()
        dim = fields["dim"][0]
        s_h, unit = fields["S_H"][:2]
        s0, s_f, s_total = fields["S_0(N)"][0], fields["S_F"][0], fields["S"][0]
    return {"dim": int(dim), "s_h": float(s_h), "s0": float(s0), "s_f": float(s_f),
            "s_total": float(s_total), "unit": unit}


def check_entropy(expect: dict, result, _results=None) -> list[str]:
    code, out, _ = result
    if code != 0:
        return [f"exit status {code}"]
    try:
        got = _parse_entropy(out, expect["csv"])
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable report: {exc}"]
    problems = []
    unit = "bits" if expect["bits"] else "nats"
    if got["unit"] != unit:
        problems.append(f"unit {got['unit']!r}, expected {unit!r}")
    if got["dim"] != expect["dim"]:
        problems.append(f"dim {got['dim']}, expected {expect['dim']}")
    # --bits must print the nats value divided by ln 2
    scale = math.log(2.0) if expect["bits"] else 1.0
    s_h, s0, s_f, s = (got[k] * scale for k in ("s_h", "s0", "s_f", "s_total"))
    if abs(s_f - expect["sf"]) > SF_TOL:
        problems.append(f"S_F {s_f!r} differs from the integral {expect['sf']!r}")
    if not _close(s_h, expect["sh"]):
        problems.append(f"S_H {s_h!r} differs from the Shannon entropy {expect['sh']!r}")
    if not _close(s0, expect["s0"]):
        problems.append(f"S_0 {s0!r} differs from the harmonic sum {expect['s0']!r}")
    if not _close(s, s0 + s_f):
        problems.append(f"S {s!r} is not S_0 + S_F = {s0 + s_f!r}")
    if abs(s - (expect["s0"] + expect["sf"])) > SF_TOL:
        problems.append(f"S {s!r} differs from S_0 + integral")
    if expect["uniform"] and abs(s - math.log(expect["dim"])) > SF_TOL:
        problems.append(f"S {s!r} of I/N is not ln N")
    if expect["pure"] and not _close(s, expect["s0"]):
        problems.append(f"S {s!r} of a pure state is not S_0(N)")
    if not 0.0 <= s_f < EXCESS_BOUND:
        problems.append(f"S_F {s_f!r} outside [0, 1 - gamma)")
    if s_f > s_h + PRINT_TOL:
        problems.append(f"S_F {s_f!r} exceeds S_H {s_h!r}")
    return problems


def _csv_rows(out: str, header: str) -> list[list[str]]:
    lines = out.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


# Inequalities the paper proves; ei3 and measurement_monotonicity are
# exploratory scans whose violations are findings, not failures.
ASSERTED = ("ei1", "ei2", "ei3a")


def check_check(expect: dict, result, _results=None) -> list[str]:
    code, out, _ = result
    try:
        rows = {r[0]: (int(r[1]), int(r[2]), float(r[3]))
                for r in _csv_rows(out, "inequality,trials,violations,worst_margin")}
    except (ValueError, IndexError) as exc:
        return [f"unparsable check table: {exc}"]
    t, nd = expect["trials"], expect["ndims"]
    want = {"ei1": t * nd, "ei2": t * nd, "ei3": 2 * t * nd, "ei3a": 49,
            "measurement_monotonicity": t}
    if sorted(rows) != sorted(want):
        return [f"rows {sorted(rows)}, expected {sorted(want)}"]
    problems = [f"{k}: {rows[k][0]} trials, expected {n}"
                for k, n in want.items() if rows[k][0] != n]
    problems += [f"{k}: {rows[k][1]} violations" for k in ASSERTED if rows[k][1]]
    if not _close(rows["ei3a"][2], expect["ei3a_margin"]):
        problems.append(f"ei3a worst margin {rows['ei3a'][2]!r}, "
                        f"expected {expect['ei3a_margin']!r}")
    violated = any(v for _, v, _ in rows.values())
    if code not in (0, 4) or (code == 4 and not violated):
        problems.append(f"exit status {code} with violations={violated}")
    return problems


def check_fig1(expect: dict, result, _results=None) -> list[str]:
    code, out, _ = result
    if code != 0:
        return [f"exit status {code}"]
    try:
        rows = _csv_rows(out, "label,n,dim,s_h,s_f")
    except ValueError as exc:
        return [str(exc)]
    max_n, dim = expect["max_n"], expect["dim"]
    uniform, mixed = rows[:max_n], rows[max_n:]
    if len(mixed) != expect["count"]:
        return [f"{len(mixed)} random rows, expected {expect['count']}"]
    problems = []
    for n, (label, rn, rdim, s_h, s_f) in enumerate(uniform, start=1):
        s_h, s_f = float(s_h), float(s_f)
        ln_n = math.log(n)
        if (label, int(rn), int(rdim)) != ("uniform", n, n):
            problems.append(f"uniform row {n}: {label},{rn},{rdim}")
        elif not (_close(s_h, ln_n) and _close(s_f, ln_n - expect["s0"][n - 1])):
            problems.append(f"uniform n={n}: s_h={s_h!r} s_f={s_f!r}")
    for i, (label, _, rdim, s_h, s_f) in enumerate(mixed):
        s_h, s_f = float(s_h), float(s_f)
        if label != "random_mixture" or int(rdim) != dim:
            problems.append(f"random row {i}: {label},{rdim}")
        elif not (0.0 <= s_f < EXCESS_BOUND and s_f <= s_h + PRINT_TOL
                  and s_h <= math.log(dim) + PRINT_TOL):
            problems.append(f"random row {i}: s_h={s_h!r} s_f={s_f!r}")
    return problems


def check_mc(expect: dict, result, results=None) -> list[str]:
    code, out, _ = result
    if code != 0:
        return [f"exit status {code}"]
    twin = results[expect["twin"]] if "twin" in expect else None
    if twin is not None and out != twin[1]:
        return ["output differs from the same seed at another worker count"]
    try:
        f = {k.strip(): v.split()[0] for k, _, v in
             (line.partition("=") for line in out.strip().splitlines())}
        mean, stderr, closed = float(f["mean"]), float(f["stderr"]), float(f["closed"])
        samples, seed = int(f["samples"]), int(f["seed"])
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable mc report: {exc}"]
    problems = []
    if (samples, seed) != (expect["samples"], expect["seed"]):
        problems.append(f"samples={samples} seed={seed}, expected "
                        f"{expect['samples']} and {expect['seed']}")
    if not stderr > 0.0 or abs(mean - expect["s_total"]) > MC_SIGMAS * stderr:
        problems.append(f"mean {mean!r} +/- {stderr!r} is more than {MC_SIGMAS:g} "
                        f"standard errors from {expect['s_total']!r}")
    if abs(closed - expect["s_total"]) > SF_TOL:
        problems.append(f"closed {closed!r} differs from S_0 + integral")
    return problems


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid rule on a grid (np.trapezoid needs numpy >= 2.0)."""
    return float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)


def check_pdensity(expect: dict, result, _results=None) -> list[str]:
    code, out, _ = result
    if code != 0:
        return [f"exit status {code}"]
    try:
        table = np.array(_csv_rows(out, "s,p"), dtype=float)
    except ValueError as exc:
        return [f"unparsable density table: {exc}"]
    s, ref = expect["s"], expect["ref"]
    if table.shape != (len(s), 2) or np.max(np.abs(table[:, 0] - s)) > 1e-12:
        return [f"grid of shape {table.shape} does not match {len(s)} points on [0, 1]"]
    p = table[:, 1]
    values = np.asarray(expect["values"])
    tol = 1e-8 * max(1.0, float(ref.max()))
    problems = []
    if np.any(p < 0.0):
        problems.append(f"negative density {p.min()!r}")
    if np.any(p[s > values.max()] != 0.0):
        problems.append("nonzero density above the largest eigenvalue")
    away = np.min(np.abs(s[:, None] - values[None, :]), axis=1) > KNOT_CLEARANCE
    err = np.abs(p - ref)[away]
    if err.size and err.max() > tol:
        i = int(np.flatnonzero(away)[np.argmax(err)])
        problems.append(f"P({s[i]!r}) = {p[i]!r}, B-spline gives {ref[i]!r}")
    n = len(values)
    # the oracle's own trapezoid error on this grid is the grid error
    for name, weight, exact in (("mass", 1.0, 1.0), ("mean", s, 1.0 / n)):
        got = trapezoid(weight * p, s)
        grid_err = abs(trapezoid(weight * ref, s) - exact)
        if abs(got - exact) > grid_err + tol:
            problems.append(f"trapezoid {name} {got!r}, expected {exact!r} "
                            f"within {grid_err:.3g}")
    return problems


def check_quadrature(expect: dict, result, _results=None) -> list[str]:
    code, out, _ = result
    try:
        value = float(out)
    except ValueError:
        return [f"unparsable quadrature output {out!r}"]
    if code != 0 or abs(value - expect["s_total"]) > SF_TOL:
        return [f"quadrature {value!r} differs from S_0 + integral {expect['s_total']!r}"]
    return []
