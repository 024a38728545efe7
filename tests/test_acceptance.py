"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them) and timed against its budget."""

import math
import time

import numpy as np
import pytest
from references import FIG1_ENVELOPE as ENVELOPE, uniform_curve_at

from qentropy import (
    EXCESS_BOUND,
    RngStream,
    absolute_entropy,
    entropy_by_quadrature,
    excess_entropy,
    identity_residuals,
    mc_entropy_estimate,
    s0_asymptotic,
    s0_exact,
    spectrum_from_values,
    uniform_mixture_excess,
)
from qentropy.cli import main as cli_main
from qentropy.experiments import (
    fig1_inset,
    fig1_random_mixtures,
    fig1_uniform_curve,
    inequality_suite,
    measurement_conjecture_scan,
    reverify_certificate,
)


def report(n, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n:2d}] {status}  {detail}  ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {n}: {detail}"
    assert elapsed < budget, f"criterion {n} exceeded runtime budget"


def separated_spectrum(dim, gen):
    raw = np.arange(1, dim + 1) + 0.4 * gen.random(dim)
    return spectrum_from_values(np.sort(raw)[::-1] / raw.sum())


def test_criterion_1_minimum_uncertainty():
    t0 = time.perf_counter()
    ok = s0_exact(2) == 0.5
    for n in range(5, 201):
        gap = s0_exact(n) - s0_asymptotic(n)
        ok = ok and -1 / (8 * n * n) < gap <= 0
    report(1, ok, "harmonic sum exact at N=2; asymptotic gap in (-1/(8N^2), 0]",
           time.perf_counter() - t0, 1)


def test_criterion_2_uniform_mixture_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 21):
        f = excess_entropy(spectrum_from_values([1.0 / n] * n))
        worst = max(worst, abs(f - uniform_mixture_excess(n)))
    report(2, worst <= 1e-13, f"subentropy integral vs closed form, worst |diff| = {worst:.2e}",
           time.perf_counter() - t0, 1)


def test_criterion_3_oracle_agreement():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for i, dim in enumerate([2, 3, 4, 6]):
        gen = RngStream(301, dim).generator()
        hits = 0
        for t in range(20):
            spec = spectrum_from_values(gen.dirichlet(np.ones(dim)))
            est = mc_entropy_estimate(spec, 200_000, RngStream(303, i * 20 + t))
            closed = absolute_entropy(spec).s_total
            if abs(est.mean - closed) <= 4 * est.stderr:
                hits += 1
        detail.append(f"N={dim}: {hits}/20")
        ok = ok and hits >= 19
    report(3, ok, "sphere MC vs closed form within 4 se: " + ", ".join(detail),
           time.perf_counter() - t0, 120)


def test_criterion_4_path_equivalence():
    t0 = time.perf_counter()
    gen = RngStream(307).generator()
    worst = 0.0
    for trial in range(100):
        values = gen.dirichlet(np.ones(int(gen.integers(2, 9))))
        if trial % 4 == 3:  # every fourth spectrum gets a tie and a zero
            values = np.append(values, [values[0], 0.0])
        spec = spectrum_from_values(values / values.sum())
        dim = spec.dim
        diff = abs(entropy_by_quadrature(spec, dim) - absolute_entropy(spec).s_total)
        worst = max(worst, diff)
    report(4, worst <= 1e-12, f"closed form vs quadrature on 100 spectra (25 with a tie and "
                              f"a zero), worst = {worst:.2e}", time.perf_counter() - t0, 10)


def test_criterion_5_appendix_identities():
    t0 = time.perf_counter()
    gen = RngStream(311).generator()
    worst_eid1, worst_mom = 0.0, 0.0
    for _ in range(100):
        dim = int(gen.integers(2, 11))
        spec = separated_spectrum(dim, gen)
        eid1, moments = identity_residuals(spec)
        worst_eid1 = max(worst_eid1, eid1)
        if moments:
            worst_mom = max(worst_mom, max(moments))
    ok = worst_eid1 <= 1e-10 and worst_mom <= 1e-9
    report(5, ok, f"eid1 worst = {worst_eid1:.2e}, moments worst = {worst_mom:.2e}",
           time.perf_counter() - t0, 5)


def test_criterion_6_universal_bound():
    t0 = time.perf_counter()
    gen = RngStream(313).generator()
    max_f = 0.0
    ok = True
    for _ in range(10_000):
        dim = int(gen.integers(2, 17))
        spec = spectrum_from_values(gen.dirichlet(np.ones(dim)))
        f = absolute_entropy(spec).s_f
        ok = ok and f < 0.4227843351
        max_f = max(max_f, f)
    # the approach to the bound: near-uniform mixtures of many states
    near_uniform_max = 0.0
    for _ in range(10):
        spec = spectrum_from_values(gen.dirichlet(np.full(50, 5000.0)))
        f = absolute_entropy(spec).s_f
        ok = ok and f < 0.4227843351
        near_uniform_max = max(near_uniform_max, f)
    ok = ok and near_uniform_max > 0.40
    report(6, ok, f"all S_F < 1-gamma; Dirichlet max = {max_f:.4f}, "
                  f"near-uniform n=50 max = {near_uniform_max:.4f}",
           time.perf_counter() - t0, 30)


def test_criterion_7_fig1_reproduction():
    t0 = time.perf_counter()
    curve = fig1_uniform_curve(64)
    sf = [r.s_f for r in curve]
    sh = [r.s_h for r in curve]
    ok = all(b > a for a, b in zip(sf, sf[1:])) and all(b > a for a, b in zip(sh, sh[1:]))
    rows = fig1_random_mixtures(8, 500, RngStream(317))
    worst_env = max(abs(r.s_f - uniform_curve_at(r.s_h)) for r in rows)
    ok = ok and worst_env <= ENVELOPE
    for n, exact, asym in fig1_inset(200)[4:]:
        ok = ok and -1 / (8 * n * n) < exact - asym <= 0
    report(7, ok, f"curve monotone; scatter envelope = {worst_env:.4f} <= {ENVELOPE}; "
                  f"inset gap bound holds", time.perf_counter() - t0, 30)


def test_criterion_8_inequality_suites():
    t0 = time.perf_counter()
    reports = {r.inequality_id: r
               for r in inequality_suite(1000, [(2, 2), (2, 3), (3, 3)], RngStream(331))}
    ok = reports["ei1"].violations == 0 and reports["ei2"].violations == 0 \
        and reports["ei3a"].violations == 0
    # singlet: reduced spin has S = ln 2, the whole pure 2x2 state has S0(4) = 13/12
    singlet = math.log(2) < s0_exact(4) and s0_exact(4) == pytest.approx(13 / 12)
    ok = ok and singlet
    report(8, ok, f"ei1/ei2/ei3a violations = {reports['ei1'].violations}/"
                  f"{reports['ei2'].violations}/{reports['ei3a'].violations}; "
                  f"singlet ln2 < 13/12", time.perf_counter() - t0, 30)


def test_criterion_9_exploratory_scans():
    t0 = time.perf_counter()
    suite = {r.inequality_id: r for r in inequality_suite(200, [(2, 2)], RngStream(337))}
    ei3 = suite["ei3"]
    scans = [measurement_conjecture_scan(10_000, dim, RngStream(347, dim))
             for dim in (2, 3, 4)]
    ok = ei3.trials > 0 and all(s.trials == 10_000 for s in scans)
    # every certificate re-verifies deterministically from its recorded seed
    for rep in [ei3, *scans]:
        for cert in rep.certificates:
            m1 = reverify_certificate(cert)
            m2 = reverify_certificate(cert)
            ok = ok and m1 == m2 and abs(m1 - cert.margin) <= 1e-12
    viol = [s.violations for s in scans]
    report(9, ok, f"ei3 worst margin = {ei3.worst_margin:.3e}; measurement scan "
                  f"violations at N=2,3,4: {viol} (findings, not failures)",
           time.perf_counter() - t0, 60)


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    spec_file = tmp_path / "s.txt"
    spec_file.write_text("0.6 0.3 0.1")
    commands = [
        ["entropy", "--spectrum", str(spec_file)],
        ["mc", "--spectrum", str(spec_file), "--samples", "50000", "--workers", "1"],
        ["mc", "--spectrum", str(spec_file), "--samples", "50000", "--workers", "4"],
        ["pdensity", "--spectrum", str(spec_file), "--grid", "101"],
        ["fig1", "--dim", "4", "--count", "50"],
        ["inset", "--max-dim", "30"],
        ["check", "ei3a", "--trials", "10"],
        ["random-state", "--dim", "4"],
    ]
    ok = True
    outputs = {}
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli_main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out))
        ok = ok and runs[0] == runs[1]
        outputs[tuple(argv[:1] + argv[-2:])] = runs[0]
    # the two mc worker configurations must agree with each other too
    mc1 = outputs[("mc", "--workers", "1")]
    mc4 = outputs[("mc", "--workers", "4")]
    ok = ok and mc1 == mc4
    with capsys.disabled():
        report(10, ok, "byte-identical reruns for all commands; --workers 1 == 4",
               time.perf_counter() - t0, 600)
