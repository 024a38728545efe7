"""The output checks flag known-bad outputs and accept correct ones."""

import json
import math
from pathlib import Path

import numpy as np

import checks
import oracle
import run
import tracing
import workloads


def _entropy_text(values, s_f):
    n = len(values)
    sh, s0 = oracle.shannon(values), oracle.s0(n)
    return (f"dim      = {n}\nS_H      = {sh:.12g} nats   (von Neumann)\n"
            f"S_0(N)   = {s0:.12g} nats   (minimum uncertainty)\n"
            f"S_F      = {s_f:.12g} nats   (excess statistical)\n"
            f"S        = {s0 + s_f:.12g} nats   (absolute)\n")


def test_entropy_check_flags_float_table_on_near_uniform_spectrum():
    v = 1 + 0.01 * np.arange(12)
    v = v / v.sum()
    expect = workloads.entropy_expect(v, 12)
    bad = checks.check_entropy(expect, (0, _entropy_text(v, 10.6503121967), ""))
    assert any("S_F" in p for p in bad)
    assert checks.check_entropy(expect, (0, _entropy_text(v, expect["sf"]), "")) == []


def test_entropy_check_bits_are_nats_over_ln2():
    v = [0.75, 0.25]
    expect = workloads.entropy_expect(v, 2, bits=True, csv=True)
    sh, s0, sf = expect["sh"], expect["s0"], expect["sf"]
    row = ",".join(f"{x / math.log(2):.12g}" for x in (sh, s0, sf, s0 + sf))
    out = f"dim,s_h,s0,s_f,s_total,unit\n2,{row},bits\n"
    assert checks.check_entropy(expect, (0, out, "")) == []
    nats = ",".join(f"{x:.12g}" for x in (sh, s0, sf, s0 + sf))
    assert checks.check_entropy(expect, (0, f"dim,s_h,s0,s_f,s_total,unit\n2,{nats},bits\n",
                                         ""))


def _pdensity_table(expect, p):
    return "s,p\n" + "".join(f"{s:.12g},{x:.12g}\n" for s, x in zip(expect["s"], p))


def test_pdensity_check_flags_positive_density_below_smallest_eigenvalue():
    expect = workloads.pdensity_expect([0.5, 0.3, 0.2], 1001)
    good = expect["ref"].copy()
    assert checks.check_pdensity(expect, (0, _pdensity_table(expect, good), "")) == []
    bad = good.copy()
    bad[10] = 3.5  # s = 0.01, below p_min = 0.2
    assert checks.check_pdensity(expect, (0, _pdensity_table(expect, bad), ""))


def _mc_text(mean, stderr):
    return (f"mean     = {mean:.12g} nats\nstderr   = {stderr:.12g}\nsamples  = 100000\n"
            f"seed     = 7\nclosed   = 1.5 nats\nz        = 0.0\n")


def test_mc_check_flags_mean_seven_standard_errors_off():
    expect = {"s_total": 1.5, "samples": 100_000, "seed": 7}
    assert checks.check_mc(expect, (0, _mc_text(1.5 + 5 * 1e-3, 1e-3), "")) == []
    assert checks.check_mc(expect, (0, _mc_text(1.5 + 7 * 1e-3, 1e-3), ""))


def _check_table(violations):
    rows = {"ei1": 6, "ei2": 6, "ei3": 12, "ei3a": 49, "measurement_monotonicity": 2}
    body = "".join(f"{k},{t},{violations.get(k, 0)},{1 / 12 if k == 'ei3a' else 0.1:.12g}\n"
                   for k, t in rows.items())
    return "inequality,trials,violations,worst_margin\n" + body


def test_check_exit_4_is_accepted_only_for_exploratory_violations():
    expect = {"trials": 2, "ndims": 3, "ei3a_margin": float(oracle.min_harmonic_margin())}
    assert checks.check_check(expect, (0, _check_table({}), "")) == []
    for explore in ({"ei3": 1}, {"measurement_monotonicity": 2}):
        table = _check_table(explore)
        assert checks.check_check(expect, (4, table, "")) == []
        assert checks.check_check(expect, (0, table, "")) == []
    assert checks.check_check(expect, (4, _check_table({"ei1": 1}), ""))
    assert checks.check_check(expect, (4, _check_table({}), ""))


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
