"""Command-line front end: spectra, coefficient tables, sweeps, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .qnum import (
    QuantumNumberError,
    SystemParams,
    derive_constants,
    energy,
    enumerate_blocks,
    parse_half_integer,
)
from .spheroidal import _coefficients, _sweep_lambdas, _sweep_stacks
from .interbasis import ExpansionMatrix, expansion_matrix, inverse_expansion_matrix
from .verify import run_suite, summary_table, to_json_lines

MATRIX_KINDS = (
    "parabolic-in-spherical",    # columns n1, rows j
    "spherical-in-parabolic",    # columns j, rows n1
    "spheroidal-in-spherical",   # columns q, rows j (needs R)
    "spheroidal-in-parabolic",   # columns q, rows n1 (needs R)
)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _csv_table(header: list[str], rows) -> str:
    """Header line, then every row of an iterable formatted by one row template.

    All rows share the layout of the first.  String cells (labels, which
    hold no comma or quote) go through as they are; numbers print as
    %.17g, which re-parses to the same double.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return ",".join(header)
    template = ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in first)
    return "\n".join([",".join(header), template % tuple(first),
                      *(template % tuple(row) for row in rows)])


def _json_table(header: list[str], rows: list[list]) -> str:
    return json.dumps({"columns": header, "rows": rows})


def _table(args, header: list[str], rows: list[list]) -> str:
    if args.format == "json":
        return _json_table(header, rows)
    return _csv_table(header, rows)


def _params(args) -> SystemParams:
    return SystemParams(two_s=parse_half_integer(args.s), c1=args.c1, c2=args.c2)


def _n_max(args) -> float:
    if not math.isfinite(args.n_max):
        raise ValueError(f"--n-max must be finite, got {args.n_max}")
    return args.n_max


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, steps = spec.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise ValueError(f"bad R grid {spec!r}, expected start:stop:steps") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"bad R grid {spec!r}, start and stop must be finite")
    if steps < 1:
        raise ValueError("R grid must contain at least one point")
    return [float(r) for r in np.linspace(start, stop, steps)]


def cmd_spectrum(args) -> int:
    params = _params(args)
    rows = []
    for two_n, two_m in enumerate_blocks(params, _n_max(args)):
        dc = derive_constants(params, two_m)
        rows.append([two_n / 2.0, two_m / 2.0, dc.delta1, dc.delta2,
                     energy(params, two_m, two_n)])
    _emit(_table(args, ["n", "m", "delta1", "delta2", "energy"], rows), args.out)
    return 0


def _matrix_output(args, matrix: ExpansionMatrix) -> str:
    if args.format == "json":
        return json.dumps({
            "kind": args.kind,
            "row_labels": list(matrix.row_labels),
            "col_labels": list(matrix.col_labels),
            "entries": [[float(v) for v in row] for row in matrix.entries],
        })
    header = ["row"] + list(matrix.col_labels)
    rows = [[label, *matrix.entries[i].tolist()]
            for i, label in enumerate(matrix.row_labels)]
    return _csv_table(header, rows)


def cmd_coefficients(args) -> int:
    params = _params(args)
    two_n = parse_half_integer(args.n)
    two_m = parse_half_integer(args.m)
    if args.kind == "parabolic-in-spherical":
        matrix = expansion_matrix(params, two_n, two_m)
    elif args.kind == "spherical-in-parabolic":
        matrix = inverse_expansion_matrix(params, two_n, two_m)
    else:
        if args.R is None:
            raise ValueError(f"--R is required for kind {args.kind}")
        matrix = _coefficients(params, two_n, two_m, args.R,
                               parabolic=args.kind == "spheroidal-in-parabolic")
    _emit(_matrix_output(args, matrix), args.out)
    return 0


def _sweep_table(args, header: list[str], grid: list[float], cells: np.ndarray) -> str:
    """One row per (R, q): R, q, then ``cells[p, q]`` for grid point p.

    In CSV each R cell is formatted once per grid point and each q cell
    once per q, instead of once per row.
    """
    q_values = [float(q) for q in range(cells.shape[1])]
    cells = cells.tolist()
    if args.format == "json":
        return _json_table(header, [[R, q, *row] for R, rows in zip(grid, cells)
                                    for q, row in zip(q_values, rows)])
    r_cells = ["%.17g" % R for R in grid]
    q_cells = ["%.17g" % q for q in q_values]
    return _csv_table(header, ((R, q, *row) for R, rows in zip(r_cells, cells)
                               for q, row in zip(q_cells, rows)))


def cmd_sweep(args) -> int:
    params = _params(args)
    two_n = parse_half_integer(args.n)
    two_m = parse_half_integer(args.m)
    grid = _parse_grid(args.R_grid) if args.R_grid else [args.R]
    if grid == [None]:
        raise ValueError("sweep needs --R or --R-grid")
    header = ["R", "q", "lambda"]
    if args.vectors:
        blk, lambdas, u, v = _sweep_stacks(params, two_n, two_m, grid)
        header += [f"u[{lab}]" for lab in blk.spherical_labels]
        header += [f"v[{lab}]" for lab in blk.parabolic_labels]
        # row q of point p: lambda_q, then eigenvector q of U and of V
        cells = np.concatenate([lambdas[:, :, None], u, v], axis=2)
    else:
        # lambdas alone need neither eigenvectors' signs nor the parabolic solve
        cells = _sweep_lambdas(params, two_n, two_m, grid)[:, :, None]
    _emit(_sweep_table(args, header, grid, cells), args.out)
    return 0


def cmd_verify(args) -> int:
    params = _params(args)
    r_list = _parse_grid(args.R_grid) if args.R_grid else [0.1, 1.0, 10.0, 100.0]
    reports = run_suite(params, n_max=_n_max(args), r_list=r_list, seed=args.seed)
    if args.format == "json":
        _emit(to_json_lines(reports), args.out)
    else:
        _emit(summary_table(reports), args.out)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mickepler",
        description="Bound-state spectral analysis of the generalized "
                    "MIC-Kepler system (dyon with ring-shaped perturbations).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--s", default="0",
                       help="monopole number, integer or half-integer (e.g. 1/2)")
        p.add_argument("--c1", type=float, default=0.0)
        p.add_argument("--c2", type=float, default=0.0)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("spectrum", help="energy table for all blocks up to n-max")
    common(p)
    p.add_argument("--n-max", type=float, default=4.0, dest="n_max")

    p = sub.add_parser("coefficients", help="interbasis coefficient matrices")
    common(p)
    p.add_argument("--kind", choices=MATRIX_KINDS, default="parabolic-in-spherical")
    p.add_argument("--n", required=True, help="principal quantum number (half-integers ok)")
    p.add_argument("--m", required=True, help="azimuthal quantum number")
    p.add_argument("--R", type=float, default=None, help="interfocus distance")

    p = sub.add_parser("sweep", help="separation constants along an R grid")
    common(p)
    p.add_argument("--n", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--R-grid", default=None, dest="R_grid",
                   help="start:stop:steps (linear grid)")
    p.add_argument("--vectors", action="store_true",
                   help="include eigenvector columns")

    p = sub.add_parser("verify", help="run the identity verification suite")
    common(p)
    p.add_argument("--n-max", type=float, default=4.0, dest="n_max")
    p.add_argument("--R-grid", default=None, dest="R_grid",
                   help="start:stop:steps (default 0.1,1,10,100)")
    p.add_argument("--seed", type=int, default=0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; may be called any number of times in one process.

    The parser is built once per process.  The command function is looked
    up when the command runs, so a replaced ``cmd_*`` is the one called.
    """
    args = _parser().parse_args(argv)
    command = {"spectrum": cmd_spectrum, "coefficients": cmd_coefficients,
               "sweep": cmd_sweep, "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except (QuantumNumberError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
