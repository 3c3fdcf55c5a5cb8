"""Exact rational linear algebra: sparse kernels for rank and for solves
with many right-hand sides, and their dense-row wrappers.

A rational scalar is an ``int`` when it is integral and a
``fractions.Fraction`` (in lowest terms, positive denominator, never 1)
otherwise; ``rat`` brings any exact scalar into that form.  Never a float.
Both kernels take a matrix as sparse rows (dicts from column to scalar)
and leave a matrix at least half full, over its nonzero rows and columns,
to the fraction-free (Bareiss) integer kernel.  ``sparse_rank`` pivots
sparsest first.  ``sparse_solve`` and ``sparse_kernel`` share one
elimination, ``_reduce``, that takes the pivots leftmost (a column is a
pivot exactly when it is not a combination of the columns before it) and
carries any number of right-hand sides through the same pass; a solution
sets the free variables to 0, and a kernel vector is 1 at one free column
and 0 at the others, so both are unique.  ``rank_rows``, ``nullspace_rows``
and ``solve_rows`` hand them dense rows; the last two return
``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from wonder.errors import InputError

ZERO = 0
ONE = 1


def rat(q) -> int | Fraction:
    """The exact scalar q as an ``int`` when it is integral, else a Fraction."""
    if type(q) is int:
        return q
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def parse_rat(value, what: str = "rational") -> int | Fraction:
    """Parse ``"p/q"``, ``"p"`` or an int into an exact scalar; anything
    else, floats and bools included, raises InputError naming the value."""
    if type(value) is int:
        return value
    if type(value) is str:
        # int accepts a subset of the strings Fraction does, and is faster
        try:
            return int(value)
        except ValueError:
            pass
        try:
            return rat(Fraction(value))
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"malformed {what} {value!r}")


def format_rat(q) -> str:
    """Canonical string: ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def bareiss_echelon(rows, ncols):
    """Fraction-free (Bareiss) row reduction of an integer matrix.

    ``rows`` is a sequence of equal-length integer rows; the input is not
    mutated.  Returns ``(rank, pivot_cols, echelon)`` where ``echelon`` holds
    the first ``rank`` rows of an integer row-echelon form with the same row
    space as the input.
    """
    m = [list(r) for r in rows]
    pivots = _bareiss(m, ncols)
    return len(pivots), pivots, m[: len(pivots)]


def _bareiss(m, ncols) -> list[int]:
    """Bareiss elimination of the integer rows ``m`` in place, pivoting on
    the leftmost nonzero column below ``ncols``; entries past ``ncols`` are
    carried along, never pivoted on.  Returns the pivot columns; the rows
    after the last pivot row are zero before ``ncols``."""
    nrows = len(m)
    width = len(m[0]) if m else ncols
    rank = 0
    prev = 1
    pivots = []
    for col in range(ncols):
        pr = -1
        for r in range(rank, nrows):
            if m[r][col]:
                pr = r
                break
        if pr < 0:
            continue
        if pr != rank:
            m[rank], m[pr] = m[pr], m[rank]
        top = m[rank]
        piv = top[col]
        for r in range(rank + 1, nrows):
            mr = m[r]
            f = mr[col]
            if f:
                for c in range(col, width):
                    mr[c] = (piv * mr[c] - f * top[c]) // prev
            elif prev != 1 or piv != 1:
                for c in range(col, width):
                    mr[c] = (piv * mr[c]) // prev
        prev = piv
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return pivots


def _scaled_int_rows(dense) -> list[list[int]]:
    """Clear denominators row by row; preserves row space and solution sets
    when applied jointly to an augmented matrix."""
    out = []
    for row in dense:
        mult = lcm(*(v.denominator for v in row)) if row else 1
        out.append([v.numerator * (mult // v.denominator) for v in row])
    return out


def _div(a, b):
    """a / b as ``rat`` gives it."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _live_rows(rows):
    """The nonzero rows of a sparse matrix by row number, zeros dropped,
    and each column's set of row numbers; whether the matrix is at least
    half full over those rows and columns."""
    live = {}  # row number -> its remaining nonzero entries
    at = {}  # column -> the live rows with an entry in it
    for r, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if row:
            live[r] = row
            for c in row:
                at.setdefault(c, set()).add(r)
    dense = 2 * sum(map(len, live.values())) >= len(live) * len(at) > 0
    return live, at, dense


def sparse_rank(rows) -> int:
    """Rank of a matrix given as sparse rows, each a dict from column to
    exact scalar (zero values are skipped); the input is not mutated.

    Gaussian elimination that pivots on the sparsest remaining row, at its
    column with the fewest remaining entries, so a matrix close to a
    permutation matrix is reduced with little fill-in.  A multiplier stays
    an ``int`` when the pivot divides the entry exactly.  A matrix with at
    least half of its entries nonzero, over its nonzero rows and columns,
    goes to the Bareiss kernel instead, which is faster on dense rows."""
    live, at, dense = _live_rows(rows)
    if dense:
        dense = [[row.get(c, ZERO) for c in at] for row in live.values()]
        return bareiss_echelon(_scaled_int_rows(dense), len(at))[0]
    heap = [(len(row), r) for r, row in live.items()]
    heapify(heap)
    rank = 0
    while heap:
        n, r = heappop(heap)
        top = live.get(r)
        if top is None or len(top) != n:
            continue  # the row was cleared, or has changed length since
        del live[r]
        rank += 1
        for c in top:
            at[c].discard(r)
        col = min(top, key=lambda c: len(at[c]))
        piv = top.pop(col)
        for r2 in at.pop(col):
            row = live[r2]
            f = _div(row.pop(col), piv)
            for c, v in top.items():
                q = row.get(c, ZERO) - f * v
                if q:
                    if c not in row:
                        at[c].add(r2)
                    row[c] = q
                else:
                    del row[c]
                    at[c].discard(r2)
            if row:
                heappush(heap, (len(row), r2))
            else:
                del live[r2]
    return rank


def _reduce(rows, ncols: int, rhs) -> tuple[dict, set]:
    """The reduced row echelon form of ``[A | B]``, pivoting only in the
    columns of A.

    ``rows`` are the rows of A as sparse dicts over the columns
    ``0..ncols-1``; the j-th of ``rhs`` is the column j of B as a sparse
    dict from row number to scalar, stored at column ``ncols + j``.  Neither
    is mutated.  Returns ``(reduced, bad)``: ``reduced`` maps each pivot
    column p, ascending from the last, to its row divided by the pivot
    entry, with no entry in another pivot column; ``bad`` is the set of j
    for which ``A x = b_j`` has no solution.

    A sparse A is eliminated column by column, ascending, on the sparsest
    row with an entry there, so the pivots are the leftmost ones and a row
    never gains an entry in a column already passed.  A matrix at least
    half full goes through Bareiss on integer rows instead."""
    live, at, dense = _live_rows(rows)
    for j, b in enumerate(rhs):
        key = ncols + j
        for r, v in b.items():
            if v:
                live.setdefault(r, {})[key] = v
    echelon = []  # (pivot column, pivot entry, the rest of its row), ascending
    if dense:
        cols = sorted(at)
        keys = cols + [ncols + j for j in range(len(rhs))]
        m = _scaled_int_rows([[row.get(c, ZERO) for c in keys] for row in live.values()])
        pivots = _bareiss(m, len(cols))
        for i, p in enumerate(pivots):
            row = {keys[c]: v for c, v in enumerate(m[i]) if v and c != p}
            echelon.append((cols[p], m[i][p], row))
        residue = [{keys[c]: v for c, v in enumerate(row) if v} for row in m[len(pivots) :]]
    else:
        for col in sorted(at):
            rs = at.pop(col)
            if not rs:
                continue  # a free column
            r = min(rs, key=lambda r: (len(live[r]), r))
            rs.discard(r)
            top = live.pop(r)
            piv = top.pop(col)
            for c in top:
                s = at.get(c)
                if s is not None:
                    s.discard(r)
            echelon.append((col, piv, top))
            for r2 in rs:
                row = live[r2]
                f = _div(row.pop(col), piv)
                for c, v in top.items():
                    q = row.get(c, ZERO) - f * v
                    s = at.get(c)  # None past ncols
                    if q:
                        if s is not None and c not in row:
                            s.add(r2)
                        row[c] = q
                    else:
                        del row[c]
                        if s is not None:
                            s.discard(r2)
                if not row:
                    del live[r2]
        residue = live.values()  # only entries of B are left
    bad = {c - ncols for row in residue for c in row}
    reduced = {}
    for p, piv, row in reversed(echelon):
        out = {}
        for c, v in row.items():
            below = reduced.get(c)
            if below is None:
                out[c] = out.get(c, ZERO) + v
            else:
                for c2, v2 in below.items():
                    out[c2] = out.get(c2, ZERO) - v * v2
        reduced[p] = {c: _div(v, piv) for c, v in sorted(out.items()) if v}
    return reduced, bad


def sparse_solve(rows, ncols: int, rhs) -> list[dict | None]:
    """Solutions of ``A x = b`` for every b in ``rhs``, from one elimination.

    ``rows`` are the rows of A as sparse dicts over the columns
    ``0..ncols-1``; each b is a sparse dict from row number to scalar.  A
    solution is a dict from column to nonzero scalar, ascending, with every
    free variable 0 and the pivot columns leftmost; ``None`` when the system
    is inconsistent."""
    reduced, bad = _reduce(rows, ncols, rhs)
    out = [{} for _ in rhs]
    for p in sorted(reduced):
        for c, v in reduced[p].items():
            if c >= ncols:
                out[c - ncols][p] = v
    return [None if j in bad else sol for j, sol in enumerate(out)]


def sparse_kernel(rows, ncols: int) -> list[dict]:
    """Basis of the right kernel of A (sparse rows over ``0..ncols-1``), one
    vector per free column f, ascending: 1 at f, 0 at the other free
    columns, each a dict from column to nonzero scalar, ascending."""
    reduced, _ = _reduce(rows, ncols, ())
    basis = {f: {f: ONE} for f in range(ncols) if f not in reduced}
    for p, row in reduced.items():
        for f, v in row.items():
            basis[f][p] = -v
    return [dict(sorted(v.items())) for v in basis.values()]


def _sparse(dense) -> list[dict]:
    return [dict(enumerate(row)) for row in dense]


def rank_rows(dense) -> int:
    """Rank of a dense rational matrix (list of rows of exact scalars)."""
    return sparse_rank(_sparse(dense))


def nullspace_rows(dense, cols: int) -> list[tuple[Fraction, ...]]:
    """Exact basis of the right kernel of a dense rational matrix, as
    ``sparse_kernel`` orders it."""
    return [
        tuple(Fraction(v.get(c, ZERO)) for c in range(cols))
        for v in sparse_kernel(_sparse(dense), cols)
    ]


def solve_rows(dense, rhs, cols: int | None = None) -> tuple[Fraction, ...] | None:
    """One exact solution of ``A x = rhs`` (free variables set to 0), or
    ``None`` when the system is inconsistent."""
    nrows = len(dense)
    if len(rhs) != nrows:
        raise ValueError(f"rhs length {len(rhs)} != row count {nrows}")
    if cols is None:
        cols = len(dense[0]) if nrows else 0
    [sol] = sparse_solve(_sparse(dense), cols, [dict(enumerate(rhs))])
    if sol is None:
        return None
    return tuple(Fraction(sol.get(c, ZERO)) for c in range(cols))
