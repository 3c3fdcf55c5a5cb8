"""Exact rational linear algebra: one elimination for ranks, pivots,
solves and kernels.

A rational scalar is an ``int`` when it is integral and a
``fractions.Fraction`` (in lowest terms, positive denominator, never 1)
otherwise; ``rat`` brings any exact scalar into that form.  Never a float.
A matrix is given as sparse rows, dicts from column to scalar.  ``_forward``
eliminates it column by column, so its pivots are the leftmost ones (a
column is a pivot exactly when it is not a combination of the columns
before it), and leaves a matrix of two or more nonzero rows that is at
least half full, over those rows and their nonzero columns, to the
fraction-free (Bareiss) integer kernel.
``sparse_pivots`` and ``sparse_rank`` read the pivots off that forward
pass.  ``sparse_solve`` carries any number of right-hand sides through it,
and it and ``sparse_kernel`` back-substitute (``_back``); a solution sets
the free variables to 0, and a kernel vector is 1 at one free column and 0
at the others, so both are unique.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from wonder.errors import InputError

ZERO = 0
ONE = 1


def rat(q) -> int | Fraction:
    """The exact scalar q as an ``int`` when it is integral, else a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
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


def _forward(rows, rhs=()) -> tuple[list, set]:
    """The forward pass of the elimination of ``[A | B]``, pivoting only in
    the columns of A.

    ``rows`` are the rows of A as sparse dicts from column (a nonnegative
    int) to scalar; the j-th of ``rhs`` is the column j of B as a sparse dict
    from row number to scalar, carried at column ``~j``.  Zero values are
    skipped, and neither is mutated.  Returns ``(echelon, bad)``:
    ``echelon`` lists ``(p, pivot entry, the rest of its row)`` for each
    pivot column p, ascending, a row with no entry before p; ``bad`` is the
    set of j for which ``A x = b_j`` has no solution.

    A sparse A is eliminated column by column, ascending, on the sparsest
    row with an entry there, so the pivots are the leftmost ones (a column
    is a pivot exactly when it is not a combination of the columns before
    it) and a row never gains an entry in a column already passed.  A
    multiplier stays an ``int`` when the pivot divides the entry exactly.
    A matrix of two or more nonzero rows that is at least half full, over
    those rows and their nonzero columns, goes through Bareiss on integer
    rows instead, which is faster on dense rows and finds the same
    pivots."""
    live = {}  # row number -> its remaining nonzero entries
    at = {}  # column of A -> the live rows with an entry in it
    for r, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if row:
            live[r] = row
            for c in row:
                at.setdefault(c, set()).add(r)
    dense = len(live) > 1 and 2 * sum(map(len, live.values())) >= len(live) * len(at)
    for j, b in enumerate(rhs):
        for r, v in b.items():
            if v:
                live.setdefault(r, {})[~j] = v
    if dense:
        cols = sorted(at)
        keys = cols + [~j for j in range(len(rhs))]
        m = _scaled_int_rows([[row.get(c, ZERO) for c in keys] for row in live.values()])
        pivots = _bareiss(m, len(cols))
        echelon = [
            (cols[p], m[i][p], {keys[c]: v for c, v in enumerate(m[i]) if v and c != p})
            for i, p in enumerate(pivots)
        ]
        # the rows past the pivot rows are zero in the columns of A
        return echelon, {~keys[c] for row in m[len(pivots) :] for c, v in enumerate(row) if v}
    echelon = []
    for col in sorted(at):
        rs = at.pop(col)
        if not rs:
            continue  # a free column
        r = min(rs, key=lambda r: (len(live[r]), r)) if len(rs) > 1 else next(iter(rs))
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
                s = at.get(c)  # None for a column of B
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
    return echelon, {~c for row in live.values() for c in row}  # only B is left


def _back(echelon) -> dict:
    """Back-substitution on ``_forward``'s echelon: the reduced row echelon
    form, as a dict from each pivot column p, descending, to its row divided
    by the pivot entry, with no entry in another pivot column."""
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
        reduced[p] = {c: _div(v, piv) for c, v in out.items() if v}
    return reduced


def sparse_pivots(rows) -> list[int]:
    """The leftmost pivot columns, ascending, of a matrix given as sparse
    rows: a column is one exactly when it is not a combination of the
    columns before it."""
    return [p for p, _, _ in _forward(rows)[0]]


def sparse_rank(rows) -> int:
    """Rank of a matrix given as sparse rows: its number of pivots."""
    return len(_forward(rows)[0])


def sparse_solve(rows, rhs) -> list[dict | None]:
    """Solutions of ``A x = b`` for every b in ``rhs``, from one elimination.

    ``rows`` are the rows of A as sparse dicts; each b is a sparse dict from
    row number to scalar.  A solution is a dict from column to nonzero
    scalar, ascending, with every free variable 0 and the pivot columns
    leftmost; ``None`` when the system is inconsistent."""
    echelon, bad = _forward(rows, rhs)
    reduced = _back(echelon)
    out = [{} for _ in rhs]
    for p in sorted(reduced):
        for c, v in reduced[p].items():
            if c < 0:
                out[~c][p] = v
    return [None if j in bad else sol for j, sol in enumerate(out)]


def sparse_kernel(rows, ncols: int) -> list[dict]:
    """Basis of the right kernel of A (sparse rows over ``0..ncols-1``), one
    vector per free column f, ascending: 1 at f, 0 at the other free
    columns, so its other entries are at pivot columns before f; each a
    dict from column to nonzero scalar, ascending."""
    reduced = _back(_forward(rows)[0])
    basis = {f: {f: ONE} for f in range(ncols) if f not in reduced}
    for p, row in reduced.items():
        for f, v in row.items():
            basis[f][p] = -v
    return [dict(sorted(v.items())) for v in basis.values()]
