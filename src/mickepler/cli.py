"""Command-line front end: spectra, coefficient tables, sweeps, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 (128 +
SIGPIPE) when the reader of stdout closes it before the output ends, as
``| head`` does; the command then stops without a message.  Every CSV table
goes through one writer: leading strings (a label, or R and q), then the float
cells, written as they are formatted, one chunk of points at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from .qnum import SystemParams, _energy, derive_constants, enumerate_blocks, parse_half_integer
from .spheroidal import sweep
from .interbasis import ExpansionMatrix, expansion_matrix, inverse_expansion_matrix
from .verify import run_suite, summary_table, to_json_lines

MATRIX_KINDS = (
    "parabolic-in-spherical",    # columns n1, rows j
    "spherical-in-parabolic",    # columns j, rows n1
    "spheroidal-in-spherical",   # columns q, rows j (needs R)
    "spheroidal-in-parabolic",   # columns q, rows n1 (needs R)
)


def _emit(pieces, out: str | None) -> None:
    """Write an iterable of strings to ``out`` or stdout piece by piece, ending in one
    newline; ``out`` is opened once the first piece exists, a ValueError if it cannot be."""
    pieces = iter(pieces)
    last = next(pieces)
    try:
        target = open(out, "w") if out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot open --out {out}: {exc.strerror}") from None
    with target as fh:
        fh.write(last)
        for last in pieces:
            fh.write(last)
        if not last.endswith("\n"):
            fh.write("\n")


def _check_out(out: str) -> None:
    """Refuse before any work, as opening would, an ``out`` that is a directory or lies in none."""
    try:
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        os.stat(os.path.join(os.path.dirname(out), "."))
    except OSError as exc:
        raise ValueError(f"cannot open --out {out}: {exc.strerror}") from None


# The %.17g kernel: the 17 digits of x are D = round(|x| * 10**(16 - X)),
# X = floor(log10|x|), from a double-double 10**k and Dekker's exact product,
# to within 1e-13.  A cell is proven when that is more than 1e-6 from a tie
# and 10**16 < D < 10**17, which also confirms X (a log10 one too high can
# round up to exactly 10**16); every other cell goes through '%.17g' % x.
_KERNEL_MIN_CELLS = 200     # smaller tables: the row template is faster
_CHUNK_CELLS = 16384
_SPLIT = 134217729.0        # 2**27 + 1, Dekker's splitter for doubles
_K_MIN = -300               # 10**k is tabulated for -300 <= k <= 340


@functools.cache
def _kernel_tables():
    """10**k as (2**e) * (hi + lo) with 1/2 < hi < 2, Dekker's halves of hi,
    the four-digit groups '0000'..'9999' and their trailing zeros, and
    the byte layout of each %.17g cell form."""
    powers = []
    for k in range(_K_MIN, 341):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        e = num.bit_length() - den.bit_length()
        num, den = num << max(-e, 0), den << max(e, 0)
        h = num / den                       # int division rounds correctly
        a, b = h.as_integer_ratio()
        powers.append((h, (num * b - a * den) / (den * b), e))
    hi, lo, shift = map(np.array, zip(*powers))
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    groups = np.arange(10000)[:, None]
    quads = (groups // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8).view(np.uint32)[:, 0]
    zeros = (groups % [10, 100, 1000, 10000] == 0).sum(axis=1)
    # layouts[form, kept digits]: the 25-byte slot as bytes of a cell's parts,
    # 3-19 the digits, 20 '.', 21 '0', 22 NUL, 23 'e', 24-27 |X| as '0ddd',
    # 28 sign, 29 separator, 30 sign of X
    layouts = np.full((23, 18, 25), 22, np.int32)
    for form, keep in np.ndindex(23, 18):   # X + 4 in fixed notation, then e+dd, e+ddd
        x = form - 4
        if form < 21:
            digits = max(keep, x + 1)
            cell = ([21, 20] + [21] * (-x - 1) if x < 0 else []) + list(range(3, 3 + digits))
            if 0 <= x < digits - 1:
                cell.insert(x + 1, 20)
        else:
            cell = [3] + [20] * (keep > 1) + list(range(4, 3 + keep))
            cell += [23, 30] + [25] * (form == 22) + [26, 27]
        layouts[form, keep, :len(cell) + 1] = [28] + cell
        layouts[form, keep, 24] = 29
    return (hi, hi_hi, hi - hi_hi, lo, shift.astype(np.intc), quads, zeros,
            layouts.reshape(-1, 25).astype(np.intp))


def _decimal17(values: np.ndarray):
    """(D, X, proven) of each value: its 17 significant digits as an integer
    D and its decimal exponent X where ``proven`` holds (elsewhere D = 10**16)."""
    hi, hi_hi, hi_lo, lo, shift = _kernel_tables()[:5]
    a = np.abs(values)
    proven = (a >= 2.2250738585072014e-308) & (a <= 1e300)
    a = np.where(proven, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.intp)
    k = 16 - x - _K_MIN
    y = np.ldexp(a, shift[k])               # exact: |x| * 10**k == y * (hi + lo)
    p = y * hi[k]                           # an integer: p >= 10**16 > 2**53
    c = _SPLIT * y
    y_hi = c - (c - y)
    y_lo = y - y_hi
    t = ((y_hi * hi_hi[k] - p) + y_hi * hi_lo[k] + y_lo * hi_hi[k]) + y_lo * hi_lo[k]
    t += y * lo[k]
    r = np.rint(t)
    d = p.astype(np.int64) + r.astype(np.int64)
    proven &= (np.abs(t - r) < 0.5 - 1e-6) & (d > 10 ** 16) & (d < 10 ** 17)
    return np.where(proven, d, 10 ** 16), x, proven


def _cell_bytes(cells: np.ndarray) -> np.ndarray:
    """The rows of a float array as bytes, (..., 25 * cols): each cell in a
    NUL-padded 25-byte slot, '%.17g' then ',' or, last in its row, newline."""
    values = cells.ravel()
    quads, zeros, layouts = _kernel_tables()[5:]
    d, x, proven = _decimal17(values)
    first, rest = np.divmod(d, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    groups = np.divmod(high, 10 ** 4) + np.divmod(low, 10 ** 4)
    parts = np.empty((values.size, 8), np.uint32)
    for j, group in enumerate((first, *groups)):
        parts[:, j] = quads[group]
    parts[:, 5] = np.frombuffer(b".0\0e", np.uint32)[0]
    parts[:, 6] = quads[np.abs(x)]
    parts = parts.view(np.uint8)
    parts[:, 28] = np.where(values < 0, 45, 0)
    parts.reshape(*cells.shape, 32)[..., 29] = 44
    parts.reshape(*cells.shape, 32)[..., -1, 29] = 10
    parts[:, 30] = np.where(x < 0, 45, 43)
    trailing = zeros[groups[0]]
    for group in groups[1:]:
        trailing = np.where(group == 0, trailing + 4, zeros[group])
    form = np.where((x >= -4) & (x < 17), x + 4, np.where(np.abs(x) >= 100, 22, 21))
    # intp indices: np.take would copy int32 ones to intp, and those 200 more bytes
    # per cell made the allocator return each chunk's freed temporaries to the
    # system, to be faulted in again by the next chunk (50k against 6k page faults
    # for the first d = 10, 2000-point sweep table of a process)
    index = np.take(layouts, 18 * form + 17 - trailing, axis=0)
    index += np.arange(0, parts.size, 32)[:, None]
    slots = np.take(parts.ravel(), index)
    fallback = np.flatnonzero(~proven)
    if fallback.size:
        text = np.array(["%.17g" % v for v in values[fallback].tolist()], "S24")
        slots[fallback, :24] = text.view(np.uint8).reshape(-1, 24)
    return slots.reshape(*cells.shape[:-1], -1)


def _csv_table(header: list[str], columns, point_lead: list[str], row_lead: list[str]):
    """The header line, then a line per point p and row q: ``point_lead[p] +
    row_lead[q]`` (strings that end in a comma, or empty), then ``column[p, q]``
    of each (P, d, k) float array, each cell exactly '%.17g' % x, as whole-line
    pieces: one per row below the cell kernel, else one per chunk of points."""
    points, dim = len(point_lead), len(row_lead)
    first = ",".join(header) + "\n"
    if points * dim * len(header) < _KERNEL_MIN_CELLS:
        values = np.concatenate(columns, axis=2)
        template = ",".join(["%.17g"] * values.shape[2]) + "\n"
        leads = [p + q for p in point_lead for q in row_lead]
        return [first, *(lead + template % tuple(row) for lead, row in
                         zip(leads, values.reshape(points * dim, -1).tolist()))]
    # the leads as NUL-padded bytes, which are dropped with the cells' padding
    point_bytes = np.array(point_lead, "S")[:, None].view(np.uint8)
    row_bytes = np.array(row_lead, "S")[:, None].view(np.uint8)
    lead, width = point_bytes.shape[1], point_bytes.shape[1] + row_bytes.shape[1]
    step = max(1, _CHUNK_CELLS // (dim * len(header)))
    # one buffer for the rows of every chunk: each is written before the next is made
    cells = sum(column.shape[2] for column in columns)
    rows = np.empty((min(step, points), dim, width + 25 * cells), np.uint8)
    rows[:, :, lead:width] = row_bytes

    def chunks():
        yield first
        for start in range(0, points, step):
            part = slice(start, start + step)
            values = np.concatenate([column[part] for column in columns], axis=2)
            size = len(values)
            rows[:size, :, :lead] = point_bytes[part, None]
            rows[:size, :, width:] = _cell_bytes(values)
            yield rows[:size].tobytes().translate(None, b"\0").decode()

    return chunks()


def _json_table(header: list[str], columns):
    rows = np.concatenate(columns, axis=2).reshape(-1, len(header))
    return [json.dumps({"columns": header, "rows": rows.tolist()})]


def _params(args) -> SystemParams:
    return SystemParams(two_s=parse_half_integer(args.s), c1=args.c1, c2=args.c2)


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
    blocks = enumerate_blocks(params, args.n_max)
    constants = {two_m: derive_constants(params, two_m)   # once per m
                 for two_m in dict.fromkeys(two_m for _, two_m in blocks)}
    rows = []
    for two_n, two_m in blocks:
        dc = constants[two_m]
        rows.append([two_n / 2.0, two_m / 2.0, dc.delta1, dc.delta2, _energy(dc, two_n)])
    header = ["n", "m", "delta1", "delta2", "energy"]
    table = np.array(rows).reshape(-1, 1, len(header))
    _emit(_json_table(header, [table]) if args.format == "json"
          else _csv_table(header, [table], [""] * len(table), [""]), args.out)
    return 0


def _matrix_output(args, matrix: ExpansionMatrix):
    if args.format == "json":
        return [json.dumps({"kind": args.kind, "row_labels": list(matrix.row_labels),
                            "col_labels": list(matrix.col_labels),
                            "entries": matrix.entries.tolist()})]
    # each row a point of its own, after its label (labels hold no comma or quote)
    return _csv_table(["row", *matrix.col_labels], [matrix.entries[:, None]],
                      [f"{label}," for label in matrix.row_labels], [""])


def cmd_coefficients(args) -> int:
    params = _params(args)
    two_n = parse_half_integer(args.n)
    two_m = parse_half_integer(args.m)
    spheroidal = args.kind.startswith("spheroidal")
    if (args.R is None) == spheroidal:
        raise ValueError(f"--R is required for kind {args.kind}" if spheroidal
                         else f"kind {args.kind} takes no --R")
    if args.kind == "parabolic-in-spherical":
        matrix = expansion_matrix(params, two_n, two_m)
    elif args.kind == "spherical-in-parabolic":
        matrix = inverse_expansion_matrix(params, two_n, two_m)
    elif args.kind == "spheroidal-in-spherical":
        matrix = sweep(params, two_n, two_m, [args.R]).spherical_coefficients(0)
    else:
        matrix = sweep(params, two_n, two_m, [args.R]).parabolic_coefficients(0)
    _emit(_matrix_output(args, matrix), args.out)
    return 0


def cmd_sweep(args) -> int:
    params = _params(args)
    two_n = parse_half_integer(args.n)
    two_m = parse_half_integer(args.m)
    if (args.R is None) == (not args.R_grid):
        raise ValueError("give --R or --R-grid, not both" if args.R_grid
                         else "sweep needs --R or --R-grid")
    grid = _parse_grid(args.R_grid) if args.R_grid else [args.R]
    result = sweep(params, two_n, two_m, grid, vectors=args.vectors)
    header = ["R", "q", "lambda"]
    columns = [result.lambdas[:, :, None]]
    if args.vectors:
        header += [f"u[{lab}]" for lab in result.block.spherical_labels]
        header += [f"v[{lab}]" for lab in result.block.parabolic_labels]
        # row q of point p: lambda_q, then eigenvector q of U and of V
        columns += [result.u, result.v]
    dim = result.block.dim
    if args.format == "json":   # R and q as number columns
        lead = np.broadcast_arrays(np.reshape(grid, (-1, 1, 1)), np.arange(float(dim))[:, None])
        _emit(_json_table(header, [*lead, *columns]), args.out)
    else:   # each R and each q formatted once
        _emit(_csv_table(header, columns, ["%.17g," % r for r in grid],
                         [f"{q}," for q in range(dim)]), args.out)
    return 0


def cmd_verify(args) -> int:
    params = _params(args)
    r_list = _parse_grid(args.R_grid) if args.R_grid else [0.1, 1.0, 10.0, 100.0]
    reports = run_suite(params, n_max=args.n_max, r_list=r_list, seed=args.seed)
    _emit([to_json_lines(reports) if args.format == "json" else summary_table(reports)], args.out)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mickepler",
        description="Bound-state spectral analysis of the generalized "
                    "MIC-Kepler system (dyon with ring-shaped perturbations).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse takes "-1/2" after a space for an option, not a value
    m_help = "azimuthal quantum number; a negative half-integer is written --m=-1/2"

    def common(p):
        p.add_argument("--s", default="0",
                       help="monopole number, integer or half-integer (e.g. 1/2); "
                            "a negative half-integer is written --s=-1/2")
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
    p.add_argument("--m", required=True, help=m_help)
    p.add_argument("--R", type=float, default=None, help="interfocus distance")

    p = sub.add_parser("sweep", help="separation constants along an R grid")
    common(p)
    p.add_argument("--n", required=True)
    p.add_argument("--m", required=True, help=m_help)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--R-grid", default=None, dest="R_grid", help="start:stop:steps (linear grid)")
    p.add_argument("--vectors", action="store_true", help="include eigenvector columns")

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
    When the process's own stdout loses its reader, it returns 141 and points
    file descriptor 1 at devnull; a caller's redirected stdout that raises
    ``BrokenPipeError`` gets the exception.
    """
    args = _parser().parse_args(argv)
    command = {"spectrum": cmd_spectrum, "coefficients": cmd_coefficients,
               "sweep": cmd_sweep, "verify": cmd_verify}[args.command]
    try:
        if args.out:
            _check_out(args.out)
        return command(args)
    except ValueError as exc:   # QuantumNumberError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        if sys.stdout is not sys.__stdout__:
            raise
        # the reader of stdout has gone, as after `| head`: stop quietly, and point
        # stdout at devnull so that the interpreter's last flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
