import argparse
import hashlib
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from references import haar_unitary, weight_histogram

from qentropy import (
    DimensionMismatchError,
    RngStream,
    density_curve,
    eig_hermitian,
    spectrum_from_values,
)
from qentropy.cli import _require_matrix_fits, build_parser, main
from qentropy.io import load_density


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def spectrum_file(tmp_path):
    def make(text):
        path = tmp_path / "spectrum.txt"
        path.write_text(text)
        return str(path)
    return make


@pytest.fixture
def matrix_file(tmp_path):
    def make(matrix):
        m = np.asarray(matrix, dtype=complex)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({
            "format": "qentropy-density-matrix", "version": 1,
            "dim": m.shape[0],
            "matrix": [[z.real, z.imag] for z in m.ravel()]}))
        return str(path)
    return make


class TestEntropyCommand:
    def test_uniform_two(self, capsys, spectrum_file):
        code, out, _ = run(capsys, "entropy", "--spectrum", spectrum_file("0.5 0.5"))
        assert code == 0
        assert f"{math.log(2):.11g}" in out
        assert "0.19314718056" in out

    def test_matrix_input(self, capsys, matrix_file):
        code, out, _ = run(capsys, "entropy", "--input", matrix_file(np.eye(4) / 4))
        assert code == 0
        assert f"{math.log(4):.11g}" in out

    def test_two_state_total(self, capsys, spectrum_file):
        code, out, _ = run(capsys, "entropy", "--spectrum", spectrum_file("0.75 0.25"))
        assert code == 0
        expected = 0.5 - (0.75**2 * math.log(0.75) - 0.25**2 * math.log(0.25)) / 0.5
        assert f"{expected:.12g}" in out

    def test_bits_flag(self, capsys, spectrum_file):
        code, out, _ = run(capsys, "entropy", "--spectrum", spectrum_file("0.5 0.5"),
                           "--bits")
        assert code == 0
        assert "S_H      = 1 bits" in out

    def test_csv_format(self, capsys, spectrum_file):
        code, out, _ = run(capsys, "entropy", "--spectrum", spectrum_file("0.5 0.5"),
                           "--format", "csv")
        assert code == 0
        assert out.startswith("dim,s_h,s0,s_f,s_total,unit\n")

    def test_parse_error_exit_2(self, capsys, spectrum_file):
        code, _, err = run(capsys, "entropy", "--spectrum", spectrum_file("0.5 oops"))
        assert code == 2
        assert "parse" in err

    def test_validation_error_exit_3(self, capsys, spectrum_file):
        code, _, err = run(capsys, "entropy", "--spectrum", spectrum_file("0.9 0.3"))
        assert code == 3
        assert "sum" in err

    @pytest.mark.parametrize("text", ["nan 0.5 0.5", "inf 0.5 0.5"])
    def test_non_finite_spectrum_exit_3(self, capsys, spectrum_file, text):
        code, out, err = run(capsys, "entropy", "--spectrum", spectrum_file(text))
        assert code == 3
        assert out == ""
        assert "validation error" in err

    def test_nan_matrix_entry_exit_3(self, capsys, tmp_path):
        # Python's json reads the bare token NaN as a float
        path = tmp_path / "state.json"
        path.write_text('{"format": "qentropy-density-matrix", "version": 1, "dim": 2, '
                        '"matrix": [[NaN, 0], [0, 0], [0, 0], [0.5, 0]]}')
        code, out, err = run(capsys, "entropy", "--input", str(path))
        assert code == 3
        assert out == ""
        assert "validation error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "entropy", "--spectrum", "/nonexistent/path")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--spectrum", "--input"])
    def test_directory_or_non_utf8_input_exit_2(self, capsys, tmp_path, flag):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"0.5 0.5\xff")
        for path in (tmp_path, latin1):
            code, out, err = run(capsys, "entropy", flag, str(path))
            assert (code, out) == (2, "")
            assert err.startswith(("error:", "parse error:"))

    @pytest.mark.parametrize("fields,expected", [
        ('"dim": -2, "matrix": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]', 3),
        ('"dim": 2, "matrix": 5', 2),
        ('"dim": 1e400, "matrix": [[1, 0]]', 2),
        ('"dim": 2.7, "matrix": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]', 2),
        ('"dim": true, "matrix": [[1, 0]]', 2),
    ], ids=["negative-dim", "matrix-not-list", "dim-overflow", "float-dim", "bool-dim"])
    def test_malformed_dim_or_matrix_field(self, capsys, tmp_path, fields, expected):
        path = tmp_path / "state.json"
        path.write_text('{"format": "qentropy-density-matrix", "version": 1, ' + fields + "}")
        code, out, _ = run(capsys, "entropy", "--input", str(path))
        assert (code, out) == (expected, "")

    def test_entropy_and_mc_never_call_eigh(self, capsys, monkeypatch, matrix_file,
                                            spectrum_file):
        # a validated state carries the spectrum of the eigvalsh that checked it
        def eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        u = haar_unitary(3, RngStream(41))
        state = matrix_file(u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        code, out, _ = run(capsys, "entropy", "--input", state)
        assert code == 0 and "S        =" in out
        code, out, _ = run(capsys, "mc", "--spectrum", spectrum_file("0.5 0.3 0.2"),
                           "--samples", "1000")
        assert code == 0 and "closed   =" in out

    def test_dim_padding(self, capsys, spectrum_file):
        code, out, _ = run(capsys, "entropy", "--spectrum", spectrum_file("0.5 0.5"),
                           "--dim", "4")
        assert code == 0
        expected = math.log(2) + 1 / 3 + 1 / 4
        assert f"{expected:.12g}" in out

    @pytest.mark.parametrize("argv", [["entropy"], ["mc"], ["pdensity"]])
    def test_input_with_dim_exit_2(self, capsys, matrix_file, argv):
        code, out, err = run(capsys, *argv, "--input", matrix_file(np.eye(2) / 2),
                             "--dim", "8")
        assert code == 2
        assert out == ""
        assert "--dim pads a --spectrum only" in err

    @pytest.mark.parametrize("argv", [["entropy"], ["mc", "--samples", "1000"],
                                      ["pdensity"]])
    def test_dim_zero_exit_3(self, capsys, spectrum_file, argv):
        code, out, err = run(capsys, *argv, "--spectrum", spectrum_file("0.6 0.3 0.1"),
                             "--dim", "0")
        assert code == 3
        assert out == ""
        assert "--dim 0 smaller than spectrum length 3" in err

    @pytest.mark.parametrize("argv", [["entropy"], ["mc", "--samples", "1000"]])
    def test_negative_precision_exit_2(self, capsys, spectrum_file, argv):
        code, out, err = run(capsys, *argv, "--spectrum", spectrum_file("0.6 0.3 0.1"),
                             "--precision", "-1")
        assert code == 2
        assert out == ""
        assert "--precision must be at least 0, got -1" in err

    def test_precision_zero(self, capsys, spectrum_file):
        code, out, _ = run(capsys, "entropy", "--spectrum", spectrum_file("0.5 0.5"),
                           "--precision", "0")
        assert code == 0
        assert "S        = 0.7 nats   (absolute)" in out


class TestMcCommand:
    def test_pure_state(self, capsys, spectrum_file):
        code, out, _ = run(capsys, "mc", "--spectrum", spectrum_file("1 0"),
                           "--samples", "20000", "--seed", "7")
        assert code == 0
        z = float(out.splitlines()[-1].split("=")[1])
        assert abs(z) <= 4

    def test_z_not_available_for_rounding_level_spread(self, capsys, spectrum_file):
        # every sample is ln 2 in exact arithmetic; the spread is rounding
        code, out, _ = run(capsys, "mc", "--spectrum", spectrum_file("0.5 0.5"),
                           "--samples", "1000")
        assert code == 0
        assert out.splitlines()[-1] == "z        = n/a"

    def test_z_not_available_for_pure_state_in_basis_mode(self, capsys, spectrum_file):
        # every sample is 0 in exact arithmetic; the spread is rounding
        code, out, _ = run(capsys, "mc", "--spectrum", spectrum_file("1"),
                           "--samples", "1000", "--mode", "basis")
        assert code == 0
        assert out.splitlines()[-1] == "z        = n/a"

    def test_deterministic_given_seed(self, capsys, spectrum_file):
        path = spectrum_file("0.75 0.25")
        _, out1, _ = run(capsys, "mc", "--spectrum", path, "--samples", "5000",
                         "--seed", "3")
        _, out2, _ = run(capsys, "mc", "--spectrum", path, "--samples", "5000",
                         "--seed", "3")
        assert out1 == out2

    def test_workers_do_not_change_result(self, capsys, spectrum_file):
        path = spectrum_file("0.6 0.4")
        _, out1, _ = run(capsys, "mc", "--spectrum", path, "--samples", "60000",
                         "--seed", "3", "--workers", "1")
        _, out2, _ = run(capsys, "mc", "--spectrum", path, "--samples", "60000",
                         "--seed", "3", "--workers", "4")
        assert out1 == out2

    def test_basis_mode_workers_do_not_change_result_at_n16(self, capsys, spectrum_file):
        # N = 16 runs basis mode in chunks of 4096 samples
        path = spectrum_file("0.3 0.2 0.1 0.1 0.1 0.05 0.05 0.05 0.05")
        argv = ["mc", "--spectrum", path, "--dim", "16", "--mode", "basis",
                "--samples", "5000", "--seed", "3"]
        _, out1, _ = run(capsys, *argv, "--workers", "1")
        _, out2, _ = run(capsys, *argv, "--workers", "2")
        assert out1 == out2

    def test_workers_do_not_change_result_at_n64(self, capsys, spectrum_file):
        # N = 64 runs sphere mode in chunks of 16384 samples: 50 000 is four
        values = RngStream(19).generator().dirichlet(np.ones(64))
        path = spectrum_file(" ".join(repr(float(v)) for v in values))
        argv = ["mc", "--spectrum", path, "--samples", "50000", "--seed", "3"]
        outs = [run(capsys, *argv, "--workers", w) for w in ("1", "2", "4")]
        assert [code for code, _, _ in outs] == [0, 0, 0]
        assert outs[0][1] == outs[1][1] == outs[2][1]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, spectrum_file, workers):
        code, out, err = run(capsys, "mc", "--spectrum", spectrum_file("0.6 0.4"),
                             "--samples", "1000", "--workers", workers)
        assert code == 2
        assert out == ""
        assert f"--workers must be at least 1, got {workers}" in err

    def test_env_seed(self, capsys, spectrum_file, monkeypatch):
        path = spectrum_file("0.6 0.4")
        monkeypatch.setenv("QENT_SEED", "99")
        _, out_env, _ = run(capsys, "mc", "--spectrum", path, "--samples", "5000")
        monkeypatch.delenv("QENT_SEED")
        _, out_flag, _ = run(capsys, "mc", "--spectrum", path, "--samples", "5000",
                             "--seed", "99")
        assert out_env == out_flag

    def test_flag_beats_env(self, capsys, spectrum_file, monkeypatch):
        path = spectrum_file("0.6 0.4")
        monkeypatch.setenv("QENT_SEED", "99")
        _, out, _ = run(capsys, "mc", "--spectrum", path, "--samples", "5000",
                        "--seed", "1")
        monkeypatch.delenv("QENT_SEED")
        _, out_seed1, _ = run(capsys, "mc", "--spectrum", path, "--samples", "5000",
                              "--seed", "1")
        assert out == out_seed1


class TestPdensityCommand:
    def test_pure_state_column_of_ones(self, capsys, spectrum_file):
        code, out, _ = run(capsys, "pdensity", "--spectrum", spectrum_file("1 0"),
                           "--grid", "11")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,p"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_degenerate_exit_5(self, capsys, spectrum_file):
        # I/N: s = 1/N for every state, a point mass with no density
        code, out, err = run(capsys, "pdensity", "--spectrum",
                             spectrum_file("0.25 0.25 0.25 0.25"), "--grid", "11")
        assert code == 5
        assert out == ""
        assert "degenerate spectrum" in err
        assert "--perturb" not in err

    def test_rotated_uniform_matrix_exit_5(self, capsys, matrix_file):
        # eigh returns I/4 in a random basis as 1/4 give or take a few ulps,
        # still a point mass to rounding
        u = haar_unitary(4, RngStream(5))
        path = matrix_file(u @ u.conj().T / 4)
        spec, _ = eig_hermitian(load_density(path))
        assert spec.values[0] > spec.values[-1]
        code, out, err = run(capsys, "pdensity", "--input", path, "--grid", "11")
        assert code == 5
        assert out == ""
        assert "point mass" in err

    def test_tied_density_matches_monte_carlo(self, capsys, spectrum_file):
        code, out, _ = run(capsys, "pdensity", "--spectrum", spectrum_file("0.4 0.4 0.2"),
                           "--grid", "1001")
        assert code == 0
        table = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        s, p = table[:, 0], table[:, 1]
        edges, counts, densities = weight_histogram(spectrum_from_values([0.4, 0.4, 0.2]),
                                                    200_000, 20, RngStream(173))
        se = np.sqrt(counts.clip(min=1)) / (200_000 * np.diff(edges))
        for lo, hi, d, e in zip(edges[:-1], edges[1:], densities, se):
            # P is linear on each bin (the knots 0.2 and 0.4 are bin edges),
            # so its mean over the grid points inside a bin is the bin average
            inside = (s > lo + 1e-9) & (s < hi - 1e-9)
            assert abs(d - p[inside].mean()) <= 5 * e

    def test_n64_has_no_cancellation(self, capsys, spectrum_file):
        values = np.random.default_rng(2).dirichlet(np.ones(64))
        code, out, _ = run(capsys, "pdensity", "--spectrum",
                           spectrum_file(" ".join(repr(float(v)) for v in values)),
                           "--grid", "1001")
        assert code == 0
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        # the pole expansion printed 9.26e7 here; the largest P is ~242
        assert float(rows["0.002"]) < 1e-50
        assert max(float(p) for p in rows.values()) < 300

    @pytest.mark.parametrize("grid", [1, 2, 3001])
    def test_csv_matches_per_row_formatting(self, tmp_path, spectrum_file, grid):
        # the rows are formatted in blocks; each must read as the f-string
        # "{s:.12g},{p:.12g}" of its point
        values = "0.4 0.4 0.2 0"
        path = tmp_path / "p.csv"
        code = main(["pdensity", "--spectrum", spectrum_file(values), "--grid", str(grid),
                     "--output", str(path)])
        curve = density_curve(spectrum_from_values([float(v) for v in values.split()]),
                              grid)
        expected = "s,p\n" + "".join(f"{s:.12g},{p:.12g}\n" for s, p in
                                     zip(curve.grid.tolist(), curve.densities.tolist()))
        assert code == 0
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("grid", ["0", "-5"])
    def test_grid_below_one_exit_2(self, capsys, spectrum_file, grid):
        code, out, err = run(capsys, "pdensity", "--spectrum", spectrum_file("0.7 0.3"),
                             "--grid", grid)
        assert code == 2
        assert out == ""
        assert "--grid" in err

    @pytest.mark.parametrize("argv", [["pdensity", "--grid", "11", "--perturb", "1e-6"],
                                      ["perturb", "--epsilon", "1e-6"]])
    def test_perturb_is_gone(self, capsys, spectrum_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--spectrum", spectrum_file("0.4 0.4 0.2")])
        assert exc.value.code == 2


class TestExperimentCommands:
    def test_fig1_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "fig1", "--dim", "4", "--count", "20", "--output", str(a))
        run(capsys, "fig1", "--dim", "4", "--count", "20", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().count(b"\r") == 0

    def test_fig1_draws_pinned(self, capsys):
        # field 4 (s_h) of every data row of `fig1 --seed 11`, recorded when
        # substreams became counter offsets of one Philox key: the
        # random-mixture rows pin the Dirichlet draws of 500 substreams
        code, out, _ = run(capsys, "fig1", "--seed", "11")
        rows = out.splitlines()[1:]
        assert (code, len(rows)) == (0, 564)
        column = "".join(row.split(",")[3] + "\n" for row in rows)
        assert hashlib.sha256(column.encode()).hexdigest() == \
            "99f6c69fd0a4b6e346262802d0190a97e407d90c4f33b1c91ccacfe445e0aa34"

    def test_check_builds_no_seed_sequence_or_certificate_per_trial(self, capsys,
                                                                    monkeypatch):
        from qentropy import experiments

        calls = {}

        def count(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        count(np.random, "SeedSequence")
        count(np.random, "Philox")
        count(experiments, "Certificate")
        seen = []
        for trials in ("20", "200"):
            calls.clear()
            code, out, _ = run(capsys, "check", "--trials", trials, "--seed", "3")
            assert code == 0 and ",0," in out
            seen.append(dict(calls))
        # one key and one bit generator per run, whatever the trial count,
        # and no certificate without a violation
        assert seen[0] == seen[1]
        assert (seen[1].get("SeedSequence"), seen[1].get("Philox")) == (1, 1)
        assert "Certificate" not in seen[1]

    def test_check_runs_each_step_once_per_shape(self, capsys, monkeypatch):
        # a check op of the benchmark's shape: every trial kind and --dims
        # entry goes through one pass, so S_F runs once per spectrum width
        # and the state validation once per matrix size
        from qentropy import experiments

        shapes = {"_excess_rows": [], "_hs_states": []}

        def count(name):
            real = getattr(experiments, name)

            def wrapper(stack):
                shapes[name].append(stack.shape[1:])
                return real(stack)
            monkeypatch.setattr(experiments, name, wrapper)

        count("_excess_rows")
        count("_hs_states")
        code, _, _ = run(capsys, "check", "ei1", "ei2", "ei3", "ei3a",
                         "measurement_monotonicity", "--trials", "3",
                         "--dims", "2x2,2x3,3x3", "--dim", "3", "--seed", "4")
        assert code == 0
        for name, seen in shapes.items():
            assert seen and len(seen) == len(set(seen)), (name, seen)

    def test_check_eigvalsh_step_sees_only_partial_traces(self, capsys, monkeypatch):
        # a measurement's spectrum is its outcome distribution, so in a
        # check op of the benchmark's shape the eigvalsh step gets only the
        # reduced states, one for ei1 and two for ei3 per trial: on 2x2,
        # 2x3 and 3x3, five of dimension 2 and four of dimension 3
        from qentropy import experiments

        seen = []
        real = experiments._eigenspectra

        def wrapper(stack):
            seen.extend([stack.shape[1:]] * len(stack))
            return real(stack)
        monkeypatch.setattr(experiments, "_eigenspectra", wrapper)
        code, _, _ = run(capsys, "check", "--trials", "3", "--dims", "2x2,2x3,3x3",
                         "--dim", "4", "--seed", "4")
        assert code == 0
        want = {(2, 2): 3 * 5, (3, 3): 3 * 4}
        assert {shape: seen.count(shape) for shape in set(seen)} == want

    @pytest.mark.parametrize("inequality_id", ["ei1", "ei2", "ei3", "ei3a",
                                               "measurement_monotonicity"])
    def test_check_one_id_prints_its_row_of_the_full_run(self, capsys, inequality_id):
        argv = ["--trials", "40", "--dims", "2x2,3x2", "--dim", "4", "--seed", "8"]
        _, full, _ = run(capsys, "check", *argv)
        code, one, _ = run(capsys, "check", inequality_id, *argv)
        rows = [row for row in full.splitlines()[1:] if row.split(",")[0] == inequality_id]
        assert code == 0 and one.splitlines() == full.splitlines()[:1] + rows

    def test_check_ei3a_draws_no_random_state(self, capsys, monkeypatch):
        # ei3a is a fixed grid, so its --trials draws nothing
        from qentropy import experiments

        def fail(*args):
            raise AssertionError("check ei3a drew a random state")

        monkeypatch.setattr(experiments, "_ginibre", fail)
        code, out, _ = run(capsys, "check", "ei3a", "--trials", str(10**7))
        assert code == 0
        assert out.splitlines()[1].startswith("ei3a,49,0,")

    def test_check_memory_flat_in_trials(self, capsys):
        import tracemalloc

        def peak(trials):
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, "check", "--trials", str(trials),
                                 "--dims", "2x2,2x3,3x3,8x8", "--dim", "16")
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (code_300, peak_300), (code_2000, peak_2000) = peak(300), peak(2000)
        assert code_300 == code_2000 == 0
        assert peak_2000 <= 1.5 * peak_300

    def test_inset_table(self, capsys):
        code, out, _ = run(capsys, "inset", "--max-dim", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dim,s0_exact,s0_asymptotic"
        assert lines[2].startswith("2,0.5,")

    def test_check_ei3a_exit_0(self, capsys):
        code, out, _ = run(capsys, "check", "ei3a", "--trials", "5")
        assert code == 0
        assert "ei3a" in out

    def test_check_small_suite(self, capsys):
        code, out, _ = run(capsys, "check", "ei1", "ei2", "--trials", "5",
                           "--dims", "2x2", "--seed", "5")
        assert code == 0

    @pytest.mark.parametrize("violated,expected", [("ei3", 0), ("ei1", 4),
                                                   ("measurement_monotonicity", 4)])
    def test_check_exit_4_only_for_asserted_ids(self, capsys, monkeypatch,
                                                violated, expected):
        from qentropy import experiments

        def synthetic(inequality_id):
            rep = experiments.InequalityReport(inequality_id)
            margin = -1.0 if inequality_id == violated else 0.5
            rep.record(0.0, margin, 1, 0, RngStream(5), (2, 2))
            return rep

        monkeypatch.setattr(experiments, "run_checks", lambda ids, trials, dims, dim, rng: [
            synthetic(i) for i in ("ei1", "ei2", "ei3", "ei3a", "measurement_monotonicity")])
        code, out, err = run(capsys, "check", "--trials", "1")
        assert code == expected
        assert f"{violated},1,1," in out
        assert err.startswith(f"VIOLATION {violated} ")

    def test_check_dims_not_nxm_exit_2(self, capsys):
        code, out, err = run(capsys, "check", "ei1", "--dims", "2", "--trials", "1")
        assert code == 2
        assert out == ""
        assert "NxM" in err

    @pytest.mark.parametrize("dims", ["-1x2", "-1x-2", "2x0"])
    def test_check_dims_below_one_exit_3(self, capsys, dims):
        code, out, err = run(capsys, "check", "ei1", f"--dims={dims}", "--trials", "1")
        assert code == 3
        assert out == ""
        assert "validation error" in err

    @pytest.mark.parametrize("argv,flag", [
        (["check", "ei1", "--trials", "-1"], "--trials"),
        (["fig1", "--count", "-1"], "--count"),
        (["fig1", "--max-n", "-1"], "--max-n"),
        (["inset", "--max-dim", "-1"], "--max-dim"),
    ])
    def test_negative_count_exit_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{flag} must be at least 0, got -1" in err

    @pytest.mark.parametrize("dim", ["-1", "0"])
    def test_fig1_dim_below_one_exit_3(self, capsys, dim):
        code, out, err = run(capsys, "fig1", f"--dim={dim}", "--count", "2")
        assert code == 3
        assert out == ""
        assert f"validation error: dimension must be >= 1, got {dim}" in err

    # 2^62: at this size even one vector of the dimension is refused by
    # numpy at once, so no command can start a real allocation
    @pytest.mark.parametrize("argv", [
        ["random-state", "--dim", str(2 ** 62)],
        ["check", "measurement_monotonicity", "--dim", str(2 ** 62), "--trials", "1"],
        ["check", "ei1", "--dims", f"{2 ** 31}x{2 ** 31}", "--trials", "1"],
        ["fig1", "--dim", str(2 ** 62), "--count", "1"],
        # pdensity checks --grid before it reads a state
        ["pdensity", "--grid", str(2 ** 62)],
    ])
    def test_dimension_over_memory_cap_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("validation error:")
        # fig1 and pdensity build no dense matrix: the same 2^30 bytes cap
        # the S_F terms of a spectrum and the grid
        cap = {"fig1": 2 ** 21, "pdensity": 2 ** 26}.get(argv[0], 8192)
        assert f"is above {cap}" in err

    # a spectrum is zero-padded to at most 8192; pdensity is not run at 8193,
    # where an uncapped B-spline would build N x N arrays of about 1 GiB
    @pytest.mark.parametrize("argv,dim", [
        (["entropy"], 2 ** 62), (["mc", "--samples", "1000"], 2 ** 62),
        (["pdensity"], 2 ** 62), (["entropy"], 8193), (["mc", "--samples", "1000"], 8193),
    ])
    def test_padded_dimension_over_cap_exit_3(self, capsys, spectrum_file, argv, dim):
        code, out, err = run(capsys, *argv, "--spectrum", spectrum_file("0.5 0.5"),
                             "--dim", str(dim))
        assert (code, out) == (3, "")
        assert err.startswith("validation error:")
        assert f"--dim {dim} is above 8192" in err

    def test_long_spectrum_file_over_cap(self, capsys, monkeypatch, spectrum_file):
        # pdensity's B-spline builds N x N arrays and a basis-mode sample
        # draws an N x (N-1) complex matrix, whether N comes from --dim or
        # from the file; entropy and sphere-mode mc need O(N) and still run
        from qentropy import entropy, montecarlo

        def refuse(*args):
            raise AssertionError("N x N code reached")

        real_chunk_values = montecarlo._chunk_values

        def chunk_values(p, count, gen, mode):
            if mode == "basis":
                refuse()
            return real_chunk_values(p, count, gen, mode)

        monkeypatch.setattr(entropy, "_bspline", refuse)
        monkeypatch.setattr(montecarlo, "_chunk_values", chunk_values)
        v = np.arange(1, 8194, dtype=float)
        path = spectrum_file(" ".join(map(repr, (v / v.sum()).tolist())))
        for argv in (["pdensity", "--grid", "5"],
                     ["mc", "--mode", "basis", "--samples", "100"]):
            code, out, err = run(capsys, *argv, "--spectrum", path)
            assert (code, out) == (3, "")
            assert "dimension 8193 is above 8192" in err
        for argv in (["entropy"], ["mc", "--mode", "sphere", "--samples", "100"]):
            code, out, _ = run(capsys, *argv, "--spectrum", path)
            assert code == 0 and out

    def test_padded_dimension_at_cap_runs(self, capsys, spectrum_file):
        code, out, _ = run(capsys, "entropy", "--spectrum", spectrum_file("0.5 0.5"),
                           "--dim", "8192", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].startswith("8192,")

    # fig1 draws spectra of length --dim, never a matrix; check reads --dim
    # only for measurement_monotonicity
    @pytest.mark.parametrize("argv", [
        ["fig1", "--dim", "20000", "--count", "2", "--max-n", "2"],
        ["check", "ei1", "--dim", str(2 ** 62), "--trials", "1"],
    ])
    def test_memory_cap_spares_commands_without_that_matrix(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out

    def test_memory_cap_is_dimension_8192(self):
        # a dense complex matrix of dimension 8192 takes exactly 2^30 bytes
        _require_matrix_fits("--dim", 8192)
        with pytest.raises(DimensionMismatchError):
            _require_matrix_fits("--dim", 8193)

    def test_check_zero_trials(self, capsys):
        code, out, _ = run(capsys, "check", "ei1", "--trials", "0")
        assert code == 0
        assert out == "inequality,trials,violations,worst_margin\nei1,0,0,inf\n"

    def test_fig1_zero_count_prints_only_the_curve(self, capsys):
        code, out, _ = run(capsys, "fig1", "--count", "0", "--max-n", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,n,dim,s_h,s_f"
        assert [line.split(",")[0] for line in lines[1:]] == ["uniform"] * 3

    def test_fig1_zero_max_n_prints_only_the_dots(self, capsys):
        code, out, _ = run(capsys, "fig1", "--count", "2", "--max-n", "0")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["random_mixture"] * 2

    def test_output_directory_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "inset", "--max-dim", "3", "--output", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_inset_zero_max_dim(self, capsys):
        code, out, _ = run(capsys, "inset", "--max-dim", "0")
        assert code == 0
        assert out == "dim,s0_exact,s0_asymptotic\n"

    def test_check_unknown_id(self, capsys):
        code, _, err = run(capsys, "check", "bogus", "--trials", "5")
        assert code == 2


class TestRandomStateRoundTrip:
    def test_roundtrip_entropies_identical(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        code, _, _ = run(capsys, "random-state", "--dim", "4", "--seed", "11",
                         "--output", str(path))
        assert code == 0
        code1, out1, _ = run(capsys, "entropy", "--input", str(path))
        code2, out2, _ = run(capsys, "entropy", "--input", str(path))
        assert code1 == code2 == 0
        assert out1 == out2

    def test_negative_dim_exit_3(self, capsys):
        code, out, err = run(capsys, "random-state", "--dim", "-1")
        assert code == 3
        assert out == ""
        assert "validation error" in err

    def test_random_state_deterministic(self, capsys):
        _, out1, _ = run(capsys, "random-state", "--dim", "3", "--seed", "13")
        _, out2, _ = run(capsys, "random-state", "--dim", "3", "--seed", "13")
        assert out1 == out2

    @pytest.mark.parametrize("argv,env", [
        (["mc", "--spectrum", "{spec}", "--seed", "-1"], None),
        (["fig1", "--seed", "-1"], None),
        (["check", "ei1", "--seed", "-1"], None),
        (["random-state", "--dim", "2", "--seed", "-1"], None),
        (["random-state", "--dim", "2"], "-3"),
    ])
    def test_negative_seed_exit_2(self, capsys, monkeypatch, spectrum_file, argv, env):
        if env is None:
            monkeypatch.delenv("QENT_SEED", raising=False)
        else:
            monkeypatch.setenv("QENT_SEED", env)
        argv = [a.format(spec=spectrum_file("0.6 0.4")) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "non-negative" in err

    def test_nondeterministic_only_without_a_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("QENT_SEED", raising=False)
        argv = ["random-state", "--dim", "2", "--nondeterministic"]
        _, free1, _ = run(capsys, *argv)
        _, free2, _ = run(capsys, *argv)
        assert free1 != free2
        _, seeded, _ = run(capsys, "random-state", "--dim", "2", "--seed", "3")
        _, flag, _ = run(capsys, *argv, "--seed", "3")
        monkeypatch.setenv("QENT_SEED", "3")
        _, env, _ = run(capsys, *argv)
        assert flag == env == seeded


COMMAND_OPTIONS = {
    "entropy": {"--input", "--spectrum", "--dim", "--precision", "--bits", "--format"},
    "mc": {"--input", "--spectrum", "--dim", "--seed", "--nondeterministic",
           "--precision", "--bits", "--workers", "--samples", "--mode"},
    "pdensity": {"--input", "--spectrum", "--dim", "--grid", "--output"},
    "fig1": {"--seed", "--nondeterministic", "--dim", "--count", "--max-n", "--output"},
    "inset": {"--max-dim", "--output"},
    "check": {"--seed", "--nondeterministic", "ids", "--trials", "--dims", "--dim",
              "--output"},
    "random-state": {"--seed", "--nondeterministic", "--dim", "--output"},
}

# options every command used to accept, with a value for those that take one
FORMERLY_COMMON = {"--seed": ["5"], "--nondeterministic": [], "--precision": ["3"],
                   "--bits": [], "--format": ["csv"], "--workers": ["2"]}


class TestOptions:
    def test_each_command_takes_only_the_options_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {name: {(a.option_strings or [a.dest])[0] for a in p._actions
                          if not isinstance(a, argparse._HelpAction)}
                   for name, p in sub.choices.items()}
        assert options == COMMAND_OPTIONS
        assert sum(map(len, options.values())) == 40

    @pytest.mark.parametrize("command,option", [
        (command, option) for command, kept in COMMAND_OPTIONS.items()
        for option in FORMERLY_COMMON if option not in kept])
    def test_option_a_command_does_not_read_exit_2(self, capsys, command, option):
        required = ["--dim", "2"] if command == "random-state" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *required, option, *FORMERLY_COMMON[option]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_cli_block_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0] for line in block.splitlines()
                 if line.startswith("qentropy ")]
        assert len(lines) >= len(COMMAND_OPTIONS)
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])
