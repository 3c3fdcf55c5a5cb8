"""Exact rational linear algebra: a sparse rank kernel, and rank, nullspace
and solve on dense rows.

A rational scalar is an ``int`` when it is integral and a
``fractions.Fraction`` (in lowest terms, positive denominator, never 1)
otherwise; ``rat`` brings any exact scalar into that form.  Never a float.
``sparse_rank`` takes a matrix as sparse rows (dicts from column to
scalar) and eliminates with sparsest-first pivots, leaving a matrix at
least half full to the Bareiss kernel; ``rank_rows`` hands it dense rows.
``nullspace_rows`` and ``solve_rows`` clear denominators row-wise and run
the fraction-free (Bareiss) integer kernel, whose leftmost pivot columns
their callers may rely on; back-substitution is done over the rationals,
so they return ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from wonder.errors import InputError

ZERO = 0
ONE = 1
# back-substitution stays over Fraction, whatever the kind of the input
_FZERO = Fraction(0)
_FONE = Fraction(1)


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
    nrows = len(m)
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
                for c in range(col, ncols):
                    mr[c] = (piv * mr[c] - f * top[c]) // prev
            elif prev != 1 or piv != 1:
                for c in range(col, ncols):
                    mr[c] = (piv * mr[c]) // prev
        prev = piv
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, pivots, m[:rank]


def _scaled_int_rows(dense) -> list[list[int]]:
    """Clear denominators row by row; preserves row space and solution sets
    when applied jointly to an augmented matrix."""
    out = []
    for row in dense:
        mult = lcm(*(v.denominator for v in row)) if row else 1
        out.append([v.numerator * (mult // v.denominator) for v in row])
    return out


def sparse_rank(rows) -> int:
    """Rank of a matrix given as sparse rows, each a dict from column to
    exact scalar (zero values are skipped); the input is not mutated.

    Gaussian elimination that pivots on the sparsest remaining row, at its
    column with the fewest remaining entries, so a matrix close to a
    permutation matrix is reduced with little fill-in.  A multiplier stays
    an ``int`` when the pivot divides the entry exactly.  A matrix with at
    least half of its entries nonzero, over its nonzero rows and columns,
    goes to the Bareiss kernel instead, which is faster on dense rows."""
    live = {}  # row number -> its remaining nonzero entries
    at = {}  # column -> the live rows with an entry in it
    for r, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if row:
            live[r] = row
            for c in row:
                at.setdefault(c, set()).add(r)
    if 2 * sum(map(len, live.values())) >= len(live) * len(at) > 0:
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
            a = row.pop(col)
            if type(a) is int and type(piv) is int and not a % piv:
                f = a // piv
            else:
                f = Fraction(a, piv)
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


def rank_rows(dense) -> int:
    """Rank of a dense rational matrix (list of rows of exact scalars)."""
    return sparse_rank(dict(enumerate(row)) for row in dense)


def nullspace_rows(dense, cols: int) -> list[tuple[Fraction, ...]]:
    """Exact basis of the right kernel of a dense rational matrix."""
    if cols == 0:
        return []
    if not dense:
        basis = []
        for f in range(cols):
            v = [_FZERO] * cols
            v[f] = _FONE
            basis.append(tuple(v))
        return basis
    rank, pivots, ech = bareiss_echelon(_scaled_int_rows(dense), cols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [_FZERO] * cols
        v[f] = _FONE
        for i in range(rank - 1, -1, -1):
            p = pivots[i]
            s = _FZERO
            row = ech[i]
            for c in range(p + 1, cols):
                if row[c] and v[c]:
                    s += Fraction(row[c]) * v[c]
            v[p] = -s / row[p]
        basis.append(tuple(v))
    return basis


def solve_rows(dense, rhs, cols: int | None = None) -> tuple[Fraction, ...] | None:
    """One exact solution of ``A x = rhs`` (free variables set to 0), or
    ``None`` when the system is inconsistent."""
    nrows = len(dense)
    if len(rhs) != nrows:
        raise ValueError(f"rhs length {len(rhs)} != row count {nrows}")
    if cols is None:
        cols = len(dense[0]) if nrows else 0
    aug = [list(row) + [Fraction(b)] for row, b in zip(dense, rhs)]
    if not aug:
        return (_FZERO,) * cols
    rank, pivots, ech = bareiss_echelon(_scaled_int_rows(aug), cols + 1)
    if any(p == cols for p in pivots):
        return None
    v = [_FZERO] * (cols + 1)
    v[cols] = -_FONE  # contribution of the rhs column during back-substitution
    for i in range(rank - 1, -1, -1):
        p = pivots[i]
        s = _FZERO
        row = ech[i]
        for c in range(p + 1, cols + 1):
            if row[c] and v[c]:
                s += Fraction(row[c]) * v[c]
        v[p] = -s / row[p]
    return tuple(v[:cols])
