import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from pytest import approx

import mickepler.cli as cli
import mickepler.qnum as qnum
import mickepler.spheroidal as spheroidal
import mickepler.verify as verify
from mickepler.cli import main
from mickepler.interbasis import ExpansionMatrix, _fix_signs, block, expansion_matrix
from mickepler.qnum import SystemParams, derive_constants, energy, enumerate_blocks
from mickepler.spheroidal import solve, sweep


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def reference_csv(header, rows):
    """CSV written cell by cell through csv.writer, numbers as {:.17g}."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else f"{float(c):.17g}" for c in row])
    return buf.getvalue()


def reference_solutions(params, two_n, two_m, grid, vectors):
    """:func:`sweep` along the grid; without vectors each lambda row is LAPACK
    ``dsterf``'s of the block's spherical bands, which `sweep` then prints."""
    solutions = sweep(params, two_n, two_m, grid)
    if vectors:
        return solutions
    blk = block(params, two_n, two_m)
    return [dataclasses.replace(sol, lambdas=scipy.linalg.eigvalsh_tridiagonal(
        *blk.spherical_bands(sol.R), lapack_driver="sterf")) for sol in solutions]


def reference_sweep_table(solutions, vectors):
    """Header and rows of `sweep`, built one (R, q) row at a time."""
    first = solutions[0]
    header = ["R", "q", "lambda"]
    if vectors:
        header += [f"u[{lab}]" for lab in first.spherical_coefficients.row_labels]
        header += [f"v[{lab}]" for lab in first.parabolic_coefficients.row_labels]
    rows = []
    for sol in solutions:
        for q in range(first.spherical_coefficients.dim):
            row = [sol.R, float(q), sol.lambdas[q]]
            if vectors:
                row += list(sol.spherical_coefficients.entries[:, q])
                row += list(sol.parabolic_coefficients.entries[:, q])
            rows.append(row)
    return header, rows


class TestSpectrum:
    def test_hydrogen_energies(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--n-max", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "m", "delta1", "delta2", "energy"]
        by_level = {}
        for row in rows:
            by_level.setdefault(float(row[0]), set()).add(float(row[4]))
        assert by_level[1.0] == {-0.5}
        assert by_level[2.0] == {-0.125}
        assert next(iter(by_level[3.0])) == approx(-1.0 / 18.0, rel=1e-15)

    def test_half_integer_first_level(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--s", "1/2", "--n-max", "1.5")
        assert code == 0
        _, rows = parse_csv(out)
        energies = sorted(float(r[4]) for r in rows)
        assert len(energies) == 2  # m = -1/2 and m = 1/2 blocks of n = 3/2
        assert energies == approx([-2.0 / 9.0, -2.0 / 9.0], rel=1e-14)

    def test_csv_json_identical_numbers(self, capsys):
        # n_max = 40 gives 1,599 rows, past the cell kernel's threshold, and
        # n_max = 60 3,599 rows of 5 cells, more than one kernel chunk
        assert 3599 * 5 > cli._CHUNK_CELLS
        for n_max, count in (("4", 15), ("40", 1599), ("60", 3599)):
            args = ("spectrum", "--s", "1", "--c1", "0.3", "--c2", "0.7", "--n-max", n_max)
            _, out_csv = run_cli(capsys, *args)
            _, out_json = run_cli(capsys, *args, "--format", "json")
            _, rows = parse_csv(out_csv)
            data = json.loads(out_json)
            assert data["columns"] == ["n", "m", "delta1", "delta2", "energy"]
            assert len(data["rows"]) == len(rows) == count
            for csv_row, json_row in zip(rows, data["rows"]):
                for a, b in zip(csv_row, json_row):
                    assert float(a) == b  # bit-identical after re-parsing
            assert out_csv == reference_csv(data["columns"], data["rows"])

    def test_constants_are_derived_once_per_m(self, capsys, monkeypatch):
        # 9,999 rows of 199 m: one derivation per m, and the rows of the public
        # energy and derive_constants called per row
        calls = []

        def counting(params, two_m):
            calls.append(two_m)
            return derive_constants(params, two_m)

        monkeypatch.setattr(cli, "derive_constants", counting)
        monkeypatch.setattr(qnum, "derive_constants", counting)
        params = SystemParams(two_s=2, c1=0.3, c2=0.7)
        code, out = run_cli(capsys, "spectrum", "--s", "1", "--c1", "0.3", "--c2", "0.7",
                            "--n-max", "100")
        assert code == 0
        assert sorted(calls) == list(range(-198, 199, 2))
        monkeypatch.undo()
        rows = [[two_n / 2.0, two_m / 2.0, dc.delta1, dc.delta2, energy(params, two_m, two_n)]
                for two_n, two_m in enumerate_blocks(params, 100)
                for dc in [derive_constants(params, two_m)]]
        assert len(rows) == 9999
        assert out == reference_csv(["n", "m", "delta1", "delta2", "energy"], rows)


class TestCoefficients:
    def test_hydrogen_mixing_matrix(self, capsys):
        code, out = run_cli(capsys, "coefficients", "--n", "2", "--m", "0")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["row", "n1=0", "n1=1"]
        assert [r[0] for r in rows] == ["j=0", "j=1"]
        values = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.abs(np.abs(values) - 1 / math.sqrt(2)).max() <= 1e-14

    def test_large_block_is_orthogonal(self, capsys):
        code, out = run_cli(capsys, "coefficients", "--n", "40", "--m", "0",
                            "--c1", "0.3", "--c2", "0.7")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(header) == 41 and len(rows) == 40
        w = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.abs(w.T @ w - np.eye(40)).max() <= 1e-13

    def test_spheroidal_identity_at_r_zero(self, capsys):
        code, out = run_cli(capsys, "coefficients", "--kind",
                            "spheroidal-in-spherical", "--n", "3", "--m", "0",
                            "--R", "0")
        assert code == 0
        _, rows = parse_csv(out)
        values = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.array_equal(values, np.eye(3))

    def test_spheroidal_parabolic_near_identity_at_large_r(self, capsys):
        code, out = run_cli(capsys, "coefficients", "--kind",
                            "spheroidal-in-parabolic", "--n", "3", "--m", "1",
                            "--R", "1e8")
        assert code == 0
        _, rows = parse_csv(out)
        values = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.abs(np.abs(values) - np.eye(2)).max() <= 1e-6

    def test_u_and_lambdas_alone_never_build_the_mixing_matrix(self, capsys, monkeypatch):
        # V = W^T U is formed only when read: the spherical-side table and the
        # lambda-only sweep print the same bytes with W unavailable
        ring = ("--c1", "0.3", "--c2", "0.7", "--m", "0")
        argvs = [("coefficients", "--kind", "spheroidal-in-spherical", *ring, "--n", "13",
                  "--R", "2.5"),
                 ("sweep", *ring, "--n", "10", "--R-grid", "0:50:200")]
        expected = [run_cli(capsys, *argv) for argv in argvs]
        assert [code for code, _ in expected] == [0, 0]

        class MixingMatrixBuilt(Exception):
            pass

        def no_mixing_matrix(x_diag, x_off):
            raise MixingMatrixBuilt

        monkeypatch.setattr(spheroidal, "_mixing_matrix", no_mixing_matrix)
        assert [run_cli(capsys, *argv) for argv in argvs] == expected
        for argv in ([*argvs[0][:2], "spheroidal-in-parabolic", *argvs[0][3:]],
                     [*argvs[1], "--vectors"]):
            with pytest.raises(MixingMatrixBuilt):
                main(argv)

    def test_missing_r_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "coefficients", "--kind",
                          "spheroidal-in-spherical", "--n", "2", "--m", "0")
        assert code == 2

    @pytest.mark.parametrize("kind", ["parabolic-in-spherical", "spherical-in-parabolic"])
    def test_r_with_a_non_spheroidal_kind_is_usage_error(self, capsys, kind):
        code = main(["coefficients", "--kind", kind, "--n", "2", "--m", "0", "--R", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"kind {kind} takes no --R" in captured.err

    @pytest.mark.parametrize("kind", ["parabolic-in-spherical", "spheroidal-in-parabolic"])
    def test_csv_matches_cell_by_cell_reference(self, capsys, kind):
        # the library's own doubles; n = 40 (1,640 cells) takes the cell kernel
        for s, n, m, two_s, two_n, two_m in (("1/2", "9/2", "-1/2", 1, 9, -1),
                                             ("0", "40", "0", 0, 80, 0)):
            code, out = run_cli(capsys, "coefficients", "--kind", kind, "--s", s,
                                "--c1", "0.3", "--c2", "0.7", "--n", n, f"--m={m}",
                                *(("--R", "2.5") if kind.startswith("spheroidal") else ()))
            assert code == 0
            params = SystemParams(two_s=two_s, c1=0.3, c2=0.7)
            if kind == "parabolic-in-spherical":
                matrix = expansion_matrix(params, two_n, two_m)
            else:
                matrix = sweep(params, two_n, two_m, [2.5]).parabolic_coefficients(0)
            rows = [[label, *row] for label, row in zip(matrix.row_labels, matrix.entries)]
            assert out == reference_csv(["row", *matrix.col_labels], rows)

    @pytest.mark.parametrize("kind", ["spheroidal-in-spherical", "spheroidal-in-parabolic"])
    def test_spheroidal_json_unchanged(self, capsys, kind):
        code, out = run_cli(capsys, "coefficients", "--kind", kind, "--s", "1",
                            "--c1", "0.3", "--c2", "0.7", "--n", "5", "--m", "1",
                            "--R", "3.5", "--format", "json")
        assert code == 0
        params = SystemParams(two_s=2, c1=0.3, c2=0.7)
        sol = solve(params, 10, 2, 3.5)
        matrix = (sol.spherical_coefficients if kind == "spheroidal-in-spherical"
                  else sol.parabolic_coefficients)
        # V is the rows of U times W, signs fixed
        w = expansion_matrix(params, 10, 2).entries
        assert np.array_equal(sol.parabolic_coefficients.entries,
                              _fix_signs(np.einsum(
                                  "pqk,kn->pqn", sol.spherical_coefficients.entries.T[None], w))[0].T)
        assert out == json.dumps({
            "kind": kind,
            "row_labels": list(matrix.row_labels),
            "col_labels": list(matrix.col_labels),
            "entries": [[float(v) for v in row] for row in matrix.entries],
        }) + "\n"

    def test_negative_half_integer_labels_in_equals_form(self, capsys):
        # argparse takes "-1/2" after a space for an option, so the help and the
        # README write a negative half-integer label as --m=-1/2 or --s=-1/2
        for s, two_s in (("1/2", 1), ("-1/2", -1)):
            code, out = run_cli(capsys, "coefficients", f"--s={s}", "--n", "5/2", "--m=-1/2")
            assert code == 0
            matrix = expansion_matrix(SystemParams(two_s=two_s), 5, -1)
            rows = [[label, *row] for label, row in zip(matrix.row_labels, matrix.entries)]
            assert out == reference_csv(["row", *matrix.col_labels], rows)
            assert run_cli(capsys, "sweep", f"--s={s}", "--n", "5/2", "--m=-1/2",
                           "--R", "1")[0] == 0
        for command in ("coefficients", "sweep"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            help_text = "".join(capsys.readouterr().out.split())   # whatever the wrapping
            assert "--m=-1/2" in help_text and "--s=-1/2" in help_text
        with pytest.raises(SystemExit) as refused:
            main(["coefficients", "--s", "1/2", "--n", "5/2", "--m", "-1/2"])
        assert refused.value.code == 2
        assert "argument --m: expected one argument" in capsys.readouterr().err

    def test_json_shape(self, capsys):
        code, out = run_cli(capsys, "coefficients", "--n", "3", "--m", "1",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["row_labels"] == ["j=1", "j=2"]
        assert data["col_labels"] == ["n1=0", "n1=1"]
        assert len(data["entries"]) == 2


class TestSweep:
    def test_single_point_grid_is_angular_spectrum(self, capsys):
        code, out = run_cli(capsys, "sweep", "--n", "3", "--m", "0",
                            "--R-grid", "0:0:1")
        assert code == 0
        _, rows = parse_csv(out)
        lams = [float(r[2]) for r in rows]
        assert lams == approx([0.0, 2.0, 6.0], abs=1e-14)

    def test_two_by_two_closed_form(self, capsys):
        code, out = run_cli(capsys, "sweep", "--n", "2", "--m", "0", "--R", "3")
        assert code == 0
        _, rows = parse_csv(out)
        lams = sorted(float(r[2]) for r in rows)
        disc = math.sqrt(1.0 + 2.25)
        assert lams == approx([1.0 - disc, 1.0 + disc], rel=1e-14)

    def test_branches_stay_separated(self, capsys):
        code, out = run_cli(capsys, "sweep", "--n", "3", "--m", "0",
                            "--R-grid", "0:50:26")
        assert code == 0
        _, rows = parse_csv(out)
        by_r = {}
        for r in rows:
            by_r.setdefault(float(r[0]), []).append(float(r[2]))
        for lams in by_r.values():
            assert min(np.diff(sorted(lams))) > 1e-6

    def test_vector_columns(self, capsys):
        code, out = run_cli(capsys, "sweep", "--n", "2", "--m", "0", "--R", "1",
                            "--vectors")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["R", "q", "lambda", "u[j=0]", "u[j=1]", "v[n1=0]", "v[n1=1]"]
        first = [float(v) for v in rows[0][3:5]]
        assert math.hypot(*first) == approx(1.0, rel=1e-12)

    def test_branch_diagram(self, capsys):
        # the README's branch-diagram line on a 5-point grid: n = 7/2, m = 1/2
        # at s = 1/2 has d = 3 branches lambda_q(R), each with its leading
        # spherical coefficient u[j=1/2]
        code, out = run_cli(capsys, "sweep", "--s", "1/2", "--c1", "0.3", "--c2", "0.7",
                            "--n", "7/2", "--m", "1/2", "--R-grid", "0:4:5", "--vectors")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:4] == ["R", "q", "lambda", "u[j=1/2]"]
        assert len(rows) == 5 * 3
        assert [float(r[0]) for r in rows[::3]] == [0.0, 1.0, 2.0, 3.0, 4.0]
        solutions = sweep(SystemParams(two_s=1, c1=0.3, c2=0.7), 7, 1,
                          np.linspace(0.0, 4.0, 5))
        assert [float(r[3]) for r in rows] == [
            sol.spherical_coefficients.entries[0, q] for sol in solutions for q in range(3)]

    @pytest.mark.parametrize("vectors", [(), ("--vectors",)])
    def test_one_dimensional_block(self, capsys, vectors):
        code, out = run_cli(capsys, "sweep", "--c1", "0.3", "--c2", "0.7",
                            "--n", "1", "--m", "0", "--R-grid", "0:4:3", *vectors)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["R", "q", "lambda"] + (["u[j=0]", "v[n1=0]"] if vectors else [])
        assert [r[:2] for r in rows] == [["0", "0"], ["2", "0"], ["4", "0"]]
        if vectors:
            assert all(r[3:] == ["1", "1"] for r in rows)

    def test_vector_table_round_trips_sweep(self, capsys):
        argv = ("sweep", "--s", "1/2", "--c1", "0.3", "--c2", "0.7", "--n", "9/2",
                "--m", "1/2", "--R-grid", "0:20:15", "--vectors")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        solutions = sweep(SystemParams(two_s=1, c1=0.3, c2=0.7), 9, 1,
                          np.linspace(0.0, 20.0, 15))
        header, expected = reference_sweep_table(solutions, vectors=True)
        got_header, rows = parse_csv(out)
        assert got_header == header
        # every cell re-parses to exactly the double sweep returned
        assert [[float(c) for c in r] for r in rows] == expected
        assert out == reference_csv(header, expected)

    @pytest.mark.parametrize("vectors", [(), ("--vectors",)])
    def test_json_table_unchanged(self, capsys, vectors):
        code, out = run_cli(capsys, "sweep", "--s", "1", "--c1", "0.3", "--c2", "0.7",
                            "--n", "4", "--m=-1", "--R-grid", "0.5:30:9",
                            "--format", "json", *vectors)
        assert code == 0
        solutions = reference_solutions(SystemParams(two_s=2, c1=0.3, c2=0.7), 8, -2,
                                        np.linspace(0.5, 30.0, 9), bool(vectors))
        header, rows = reference_sweep_table(solutions, vectors=bool(vectors))
        assert out == json.dumps({"columns": header, "rows": rows}) + "\n"

    RING_HALF_ARGS = ("--s", "1/2", "--c1", "0.3", "--c2", "0.7")

    def expected_sweep(self, two_n, two_m, grid, vectors, fmt):
        solutions = reference_solutions(SystemParams(two_s=1, c1=0.3, c2=0.7),
                                        two_n, two_m, grid, vectors)
        header, rows = reference_sweep_table(solutions, vectors)
        if fmt == "json":
            return json.dumps({"columns": header, "rows": rows}) + "\n"
        return reference_csv(header, rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("vectors", [False, True])
    @pytest.mark.parametrize("n, m, two_n, two_m, grid, points", [
        ("9/2", "1/2", 9, 1, "0:20:15", np.linspace(0.0, 20.0, 15)),   # d = 4
        ("3/2", "1/2", 3, 1, "0:20:15", np.linspace(0.0, 20.0, 15)),   # d = 1
        ("7/2", "-3/2", 7, -3, "2.5:2.5:4", [2.5] * 4),                # repeated R
        ("9/2", "1/2", 9, 1, "0:50:400", np.linspace(0.0, 50.0, 400)), # cell kernel
    ])
    def test_table_equals_reference_from_sweep(self, capsys, fmt, vectors, n, m,
                                               two_n, two_m, grid, points):
        code, out = run_cli(capsys, "sweep", *self.RING_HALF_ARGS, "--n", n, f"--m={m}",
                            "--R-grid", grid, "--format", fmt,
                            *(("--vectors",) if vectors else ()))
        assert code == 0
        assert out == self.expected_sweep(two_n, two_m, points, vectors, fmt)

    @pytest.mark.parametrize("vectors", [False, True])
    @pytest.mark.parametrize("n, m, two_n, two_m, d", [("3/2", "1/2", 3, 1, 1),
                                                       ("9/2", "1/2", 9, 1, 4)])
    def test_deduplicated_columns_equal_cell_by_cell_reference(self, capsys, vectors,
                                                               n, m, two_n, two_m, d):
        # the CSV formats each R and each q once; it must still equal the table
        # written cell by cell, and the JSON the one built row by row, on grids from
        # R = 0 of one point and just below and above the cell kernel's threshold
        # and one kernel chunk
        per_point = d * (3 + 2 * d * vectors)
        below_kernel = (cli._KERNEL_MIN_CELLS - 1) // per_point
        per_chunk = cli._CHUNK_CELLS // per_point
        for points in (1, below_kernel, below_kernel + 1, per_chunk, per_chunk + 1):
            for fmt in ("csv", "json"):
                code, out = run_cli(capsys, "sweep", *self.RING_HALF_ARGS, "--n", n,
                                    f"--m={m}", "--R-grid", f"0:20:{points}", "--format",
                                    fmt, *(("--vectors",) if vectors else ()))
                assert code == 0
                assert out == self.expected_sweep(two_n, two_m, np.linspace(0.0, 20.0, points),
                                                  vectors, fmt), (points, fmt)

    @pytest.mark.parametrize("vectors", [False, True])
    def test_out_file_equals_reference_from_sweep(self, capsys, tmp_path, vectors):
        path = tmp_path / "sweep.csv"
        code, out = run_cli(capsys, "sweep", *self.RING_HALF_ARGS, "--n", "11/2",
                            "--m", "1/2", "--R", "3.25", "--out", str(path),
                            *(("--vectors",) if vectors else ()))
        assert code == 0 and out == ""
        assert path.read_text() == self.expected_sweep(11, 1, [3.25], vectors, "csv")

    @pytest.mark.parametrize("vectors", [False, True])
    def test_stdout_equals_out_file_across_chunks(self, capsys, tmp_path, vectors):
        # the table is written one kernel chunk at a time; on grids that end just
        # before, on and after a chunk boundary both outputs equal the reference
        per_chunk = cli._CHUNK_CELLS // (4 * (3 + 8 * vectors))
        path = tmp_path / "sweep.csv"
        for points in (per_chunk - 1, per_chunk, 2 * per_chunk + 1):
            argv = ("sweep", *self.RING_HALF_ARGS, "--n", "9/2", "--m", "1/2", "--R-grid",
                    f"0:20:{points}", *(("--vectors",) if vectors else ()))
            code, out = run_cli(capsys, *argv)
            assert code == 0
            assert run_cli(capsys, *argv, "--out", str(path)) == (0, "")
            assert out == path.read_text() == self.expected_sweep(
                9, 1, np.linspace(0.0, 20.0, points), vectors, "csv"), points

    def test_lambdas_alone_skip_eigenvectors(self, capsys, monkeypatch):
        # the benchmark's d = 30 block on a shorter grid
        argv = ("sweep", "--c1", "0.3", "--c2", "0.7", "--n", "30", "--m", "0",
                "--R-grid", "0:50:200")

        def no_eigenvectors(a):
            raise AssertionError("sweep without --vectors computed eigenvectors")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", no_eigenvectors)
            code, out = run_cli(capsys, *argv)
        assert code == 0
        code, out_vectors = run_cli(capsys, *argv, "--vectors")
        assert code == 0
        lam = np.array([float(r[2]) for r in parse_csv(out)[1]]).reshape(200, 30)
        ref = np.array([float(r[2]) for r in parse_csv(out_vectors)[1]]).reshape(200, 30)
        # dsterf and dstevd are both backward stable: each lambda is an exact
        # eigenvalue of the band plus a perturbation of norm c(d) u ||T||, and
        # ||T|| = max|lambda|, so by Weyl the two differ by at most 2 c(d) u
        # max|lambda|; the benchmark grid measures 0.72 d u, and d u bounds it
        bound = 30 * np.finfo(float).eps / 2 * np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(lam - ref) <= bound)

    def test_empty_grid_usage_error(self, capsys):
        code, _ = run_cli(capsys, "sweep", "--n", "2", "--m", "0",
                          "--R-grid", "0:1:0")
        assert code == 2

    def test_grid_syntax_error(self, capsys):
        code, _ = run_cli(capsys, "sweep", "--n", "2", "--m", "0",
                          "--R-grid", "nonsense")
        assert code == 2


class TestVerify:
    def test_default_hydrogen_exits_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "--n-max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        announced = int(lines[-1].split()[1])
        stream = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
        assert len(stream) == announced

    def test_corrupted_build_exits_one(self, capsys, monkeypatch):
        # the suite reads W from the one eigensolve that also gives eig(X)
        real = verify._mixing_matrix

        def corrupted(x_diag, x_off):
            w, x_eigs = real(x_diag, x_off)
            w[:, 0, 0] += 1e-3
            return w, x_eigs

        monkeypatch.setattr(verify, "_mixing_matrix", corrupted)
        code, out = run_cli(capsys, "verify", "--n-max", "2")
        assert code == 1
        assert "FAIL" in out

    def test_block_past_the_quadrature_cap_is_usage_error(self, capsys):
        # hydrogen n = 129 has a d = 129 block: refused before any check runs
        code = main(["verify", "--n-max", "129"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "DEFAULT_RADIAL_ORDER" in captured.err

    def test_huge_n_max_is_refused_before_enumerating_blocks(self, capsys):
        # about 1e12 blocks: sized from n_max and s alone, refused at once
        code = main(["verify", "--n-max", "1e6"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "degree 2000000" in captured.err

    def test_json_report_stream(self, capsys):
        code, out = run_cli(capsys, "verify", "--n-max", "1", "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all(rec["passed"] for rec in records)

    def test_invalid_parity_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--s", "1/3")
        assert code == 2

    def test_negative_strength_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--c1", "-1")
        assert code == 2

    @pytest.mark.parametrize("argv, named", [
        (("spectrum", "--c1", "nan"), "c1=nan"),
        (("coefficients", "--n", "3", "--m", "0", "--c2", "inf"), "c2=inf"),
        (("sweep", "--n", "3", "--m", "0", "--R", "nan"), "nan"),
        (("sweep", "--n", "3", "--m", "0", "--R-grid", "0:inf:3"), "0:inf:3"),
        (("coefficients", "--kind", "spheroidal-in-spherical", "--n", "3",
          "--m", "0", "--R", "inf"), "inf"),
    ])
    def test_non_finite_input_is_usage_error(self, capsys, argv, named):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "finite" in captured.err and named in captured.err

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_n_max_is_usage_error(self, capsys, command, value):
        code = main([command, "--n-max", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"n_max must be finite, got {value}" in captured.err

    @pytest.mark.parametrize("argv", [
        ("verify", "--n-max", "0"),
        ("spectrum", "--n-max", "-3"),
        ("verify", "--s", "1/2", "--n-max", "1"),   # the lowest s=1/2 level is n=3/2
    ])
    def test_n_max_without_blocks_is_usage_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "no (n, m) block has n <= n_max" in captured.err

    @pytest.mark.parametrize("option", ["--n", "--m", "--s"])
    @pytest.mark.parametrize("text", ["1/0", "1e400"])
    def test_label_that_is_no_finite_number_is_usage_error(self, capsys, option, text):
        argv = {"--n": "3", "--m": "0", "--s": "0", option: text}
        code = main(["coefficients", *(x for kv in argv.items() for x in kv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{text!r} is not a finite number" in captured.err

    @pytest.mark.parametrize("argv", [["verify", "--n-max", "3"],
                                      ["coefficients", "--n", "3", "--m", "0"],
                                      ["sweep", "--n", "3", "--m", "0", "--R", "1"]])
    def test_overflowing_strength_is_usage_error(self, argv):
        # the bands of the n >= 2 blocks overflow; run as a process, because
        # verify's n = 1 quadrature warns on the way there
        result = subprocess.run([sys.executable, "-m", "mickepler.cli", *argv, "--c1", "1e300"],
                                capture_output=True, text=True)
        assert result.returncode == 2
        assert "c1=1e+300, c2=0 are too large" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [["spectrum", "--n-max", "2"], ["verify", "--n-max", "3"],
                                      ["coefficients", "--n", "3", "--m", "0"],
                                      ["sweep", "--n", "3", "--m", "0", "--R", "1"]])
    def test_strength_overflowing_m1_is_usage_error(self, argv):
        # 4 c1 overflows, so m1 is inf and delta1 nan: refused where the block
        # constants are derived, before any table or quadrature
        result = subprocess.run([sys.executable, "-m", "mickepler.cli", *argv, "--c1", "1.7e308"],
                                capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "c1=1.7e+308, c2=0 are too large" in result.stderr
        assert "Traceback" not in result.stderr

    def test_huge_strength_is_reported_not_raised(self):
        # at c1 = 1e200 the bands stay finite and verify reports FAILs; the
        # CG oracle is exact, so nothing overflows on the way
        result = subprocess.run([sys.executable, "-m", "mickepler.cli", "verify", "--n-max", "3",
                                 "--c1", "1e200"], capture_output=True, text=True)
        assert result.returncode == 1
        assert "FAIL" in result.stdout
        assert "Traceback" not in result.stderr
        assert "OverflowError" not in result.stderr

    def test_sweep_R_with_R_grid_is_usage_error(self, capsys):
        code = main(["sweep", "--n", "2", "--m", "0", "--R", "5", "--R-grid", "0:1:2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "give --R or --R-grid, not both" in captured.err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["sweep", "--n", "3", "--m", "0", "--R", "1"],
                                      ["spectrum"], ["coefficients", "--n", "3", "--m", "0"]])
    def test_seed_is_a_verify_option_only(self, capsys, argv):
        # only verify draws random numbers; the other commands reject --seed
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestOutput:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out = run_cli(capsys, "spectrum", "--n-max", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("n,m,delta1,delta2,energy")

    @pytest.mark.parametrize("command", [("spectrum", "--n-max", "2"),
                                         ("verify", "--n-max", "2")])
    def test_out_that_cannot_be_opened_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                                      command):
        # exit 2, not verify's 1 for failed checks, and one error line, no traceback;
        # refused before the command does any work
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before its --out was refused")

        monkeypatch.setattr(cli, "run_suite", no_work)
        monkeypatch.setattr(cli, "enumerate_blocks", no_work)
        (tmp_path / "file").write_text("")
        for target, reason in ((tmp_path / "missing" / "x.csv", "No such file or directory"),
                               (tmp_path / "file" / "x.csv", "Not a directory"),
                               (tmp_path, "Is a directory")):
            code = main([*command, "--out", str(target)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: cannot open --out {target}: {reason}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "file"]

    @pytest.mark.parametrize("command", [("spectrum", "--n-max", "2"),
                                         ("verify", "--n-max", "2")])
    @pytest.mark.parametrize("flag", ["--c1", "--c2"])
    def test_negative_zero_strength_prints_the_bytes_of_zero(self, capsys, command, flag):
        # -0.0 passes the sign check; SystemParams stores it as +0.0
        code_neg, out_neg = run_cli(capsys, *command, flag, "-0")
        code_pos, out_pos = run_cli(capsys, *command, flag, "0")
        assert code_neg == code_pos == 0
        assert out_neg == out_pos

    def test_seventeen_significant_digits(self, capsys):
        _, out = run_cli(capsys, "spectrum", "--n-max", "3")
        _, rows = parse_csv(out)
        value = [r for r in rows if r[0] == "3"][0][4]
        # 17 significant digits round-trip to the exact double
        assert float(value) == -1.0 / 18.0
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 16


class _Discard(io.TextIOBase):
    """Stand-in stdout that drops what it is given."""

    def writable(self):
        return True

    def write(self, s):
        return len(s)


class TestStreaming:
    """Tables are written one chunk at a time, and only once nothing can refuse."""

    @staticmethod
    def sweep_peak(points):
        argv = ["sweep", "--c1", "0.3", "--c2", "0.7", "--n", "10", "--m", "0",
                "--R-grid", f"0:50:{points}", "--vectors"]
        with contextlib.redirect_stdout(_Discard()):
            assert main(argv) == 0      # warm: caches and the parser
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_peak_memory_grows_with_the_stacks_not_the_text(self):
        # the d = 10 sweep prints about 4.4 kB per point; held whole, that text
        # grew the peak by about 63 MiB from 2000 to 8000 points, while the
        # lambda, U and V stacks of 8000 points take 12.8 MiB
        d = 10
        stacks = 8000 * d * (1 + 2 * d) * 8
        assert self.sweep_peak(8000) - self.sweep_peak(2000) <= stacks

    def test_matrix_across_chunks_equals_reference(self, capsys, tmp_path):
        # d = 130: 16,900 cells, two kernel chunks, each row after its label
        path = tmp_path / "w.csv"
        argv = ("coefficients", "--c1", "0.3", "--c2", "0.7", "--n", "130", "--m", "0")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "")
        matrix = expansion_matrix(SystemParams(two_s=0, c1=0.3, c2=0.7), 260, 0)
        assert out == path.read_text() == reference_csv(
            ["row", *matrix.col_labels],
            [[lab, *row] for lab, row in zip(matrix.row_labels, matrix.entries)])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "3", "--m", "0", "--R-grid", "0:inf:5"],
        ["sweep", "--n", "3", "--m", "0", "--R-grid", "5:0:5", "--vectors"],
        ["sweep", "--n", "3", "--m", "0", "--R", "1", "--R-grid", "0:1:2"],
        ["sweep", "--n", "3", "--m", "0", "--R-grid", "0:1:5", "--c1", "1e300"],
        ["coefficients", "--kind", "spheroidal-in-parabolic", "--n", "3", "--m", "0"],
    ])
    def test_refused_command_writes_nothing(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        for out in ((), ("--out", str(path))):
            code = main([*argv, *out])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "" and captured.err.startswith("error: ")
        assert not path.exists()

    def test_closed_pipe_exits_141_quietly(self):
        # the reader stops after 100 bytes of an 8.8 MB table, as `| head -c 100` does
        proc = subprocess.Popen([sys.executable, "-m", "mickepler.cli", "sweep", "--n", "10",
                                 "--m", "0", "--R-grid", "0:50:2000", "--vectors"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(100).startswith(b"R,q,lambda,u[j=0]")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == b""

    def test_redirected_stdout_still_raises_broken_pipe(self):
        # an in-process caller's own stdout is theirs to handle: main leaves it
        # and the process's file descriptors alone
        class ClosedPipe(_Discard):
            def write(self, s):
                raise BrokenPipeError(32, "Broken pipe")

        with contextlib.redirect_stdout(ClosedPipe()), pytest.raises(BrokenPipeError):
            main(["spectrum", "--n-max", "2"])


class TestCellKernel:
    """The vectorized %.17g kernel against '%.17g' % x, cell by cell."""

    TIES = [1234567890123456.75, 1234567890123456.25,
            -1234567890123456.75, -1234567890123456.25]

    @staticmethod
    def kernel_cells(values):
        slots = cli._cell_bytes(np.asarray(values, dtype=float).reshape(-1, 1))
        return slots.tobytes().translate(None, b"\0").decode().split("\n")[:-1]

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20261018).integers(0, 2**64, size=2**20,
                                                        dtype=np.uint64)
        cells = bits.view(np.float64).reshape(-1, 16)
        out = "".join(cli._csv_table([f"c{i}" for i in range(16)], [cells[:, None]],
                                     [""] * len(cells), [""]))
        got = out.partition("\n")[2].replace("\n", ",")[:-1].split(",")
        expected = ["%.17g" % v for v in cells.ravel().tolist()]
        assert len(got) == len(expected)
        assert [(g, e) for g, e in zip(got, expected) if g != e] == []
        # most cells are proven, so this did not test the fallback alone
        assert cli._decimal17(cells.ravel())[2].mean() > 0.95

    def test_edge_values(self):
        tiny, normal, huge = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308
        values = [0.0, -0.0, tiny, -tiny, normal, -normal, np.nextafter(normal, 1.0),
                  1e300, np.nextafter(1e300, 0.0), np.nextafter(1e300, np.inf),
                  huge, -huge, np.inf, -np.inf, np.nan,
                  1e-5, 9.9999999999999995e-05, 1e16, 1e17, *self.TIES]
        for k in range(-20, 23):
            for p in (10.0 ** k, -(10.0 ** k)):
                values += [p, np.nextafter(p, 0.0), np.nextafter(p, 2 * p)]
        assert self.kernel_cells(values) == ["%.17g" % v for v in values]

    def test_ties_take_the_fallback(self):
        assert not cli._decimal17(np.array(self.TIES))[2].any()

    def test_labels_and_chunks(self):
        # rows that straddle the chunk boundary, each after its label
        cells = np.random.default_rng(3).standard_normal((3000, 7)) * 1e3
        labels = [f"j={i}" for i in range(3000)]
        matrix = ExpansionMatrix(dim=3000, entries=cells, row_labels=tuple(labels),
                                 col_labels=tuple("abcdefg"))
        out = "".join(cli._matrix_output(argparse.Namespace(format="csv"), matrix))
        assert out == reference_csv(["row", *"abcdefg"],
                                    [[lab, *row] for lab, row in zip(labels, cells)])


class TestRepeatedMain:
    """``main`` called many times in one process, as a library caller does."""

    def test_parser_is_built_once(self, capsys, monkeypatch):
        builds = []

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            for n in range(1, 6):
                assert run_cli(capsys, "spectrum", "--n-max", str(n))[0] == 0
            assert run_cli(capsys, "coefficients", "--n", "3", "--m", "0")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_options_do_not_leak_into_the_next_call(self, capsys, tmp_path):
        target = tmp_path / "u.json"
        spheroidal = ["coefficients", "--kind", "spheroidal-in-spherical", "--n", "3", "--m", "0"]
        code, out = run_cli(capsys, *spheroidal, "--R", "2.5", "--out", str(target),
                            "--format", "json")
        assert code == 0 and out == ""
        written = target.read_text()
        assert json.loads(written)["kind"] == "spheroidal-in-spherical"

        code = main(spheroidal)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--R is required" in captured.err
        assert target.read_text() == written

        code, out = run_cli(capsys, "coefficients", "--n", "3", "--m", "0")
        assert code == 0
        header, rows = parse_csv(out)   # CSV on stdout, not JSON into the file
        assert header == ["row", "n1=0", "n1=1", "n1=2"] and len(rows) == 3
        assert target.read_text() == written

    def test_replaced_command_function_runs(self, capsys, monkeypatch):
        assert run_cli(capsys, "spectrum", "--n-max", "2")[0] == 0   # parser built
        seen = []

        def fake_spectrum(args):
            seen.append(args.n_max)
            return 7

        monkeypatch.setattr(cli, "cmd_spectrum", fake_spectrum)
        assert main(["spectrum", "--n-max", "3"]) == 7
        assert seen == [3.0]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_lines_run(capsys):
    # every "mickepler ..." line of the README's Command line block exits 0
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("mickepler ")]
    assert len(commands) >= 5
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
