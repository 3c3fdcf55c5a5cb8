import copy
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from wonder.errors import InputError
from wonder.exact_linalg import (
    format_rat,
    parse_rat,
    rat,
    sparse_kernel,
    sparse_pivots,
    sparse_rank,
    sparse_solve,
)

from builders import bareiss_echelon, nullspace_rows_reference, solve_rows_reference

F = Fraction


def q(rows):
    """Dense rows as sparse rows of Fractions, their zeros kept as entries."""
    return [{j: F(v) for j, v in enumerate(row)} for row in rows]


def test_rank_empty():
    assert sparse_rank([]) == 0


def test_rank_identity():
    assert sparse_rank(q([[1, 0], [0, 1]])) == 2


def test_rank_proportional_rows():
    assert sparse_rank(q([[1, 2], [2, 4]])) == 1


def test_nullspace_identity():
    assert sparse_kernel(q([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3) == []


def test_nullspace_zero_matrix():
    basis = sparse_kernel(q([[0, 0, 0], [0, 0, 0]]), 3)
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


def test_nullspace_one_relation():
    (v,) = sparse_kernel(q([[1, 1]]), 2)
    assert v[0] == -v[1] and v[1] != 0


def test_solve_identity():
    assert sparse_solve(q([[1, 0], [0, 1]]), [{0: F(1), 1: F(2)}]) == [{0: 1, 1: 2}]


def test_solve_underdetermined():
    [sol] = sparse_solve(q([[1, 1]]), [{0: F(3)}])
    assert sol is not None and sol.get(0, 0) + sol.get(1, 0) == 3


def test_solve_inconsistent():
    assert sparse_solve(q([[0]]), [{0: F(1)}]) == [None]


rationals = st.builds(
    F, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=7)
)
matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(rationals, min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
)


def _canonical(q) -> bool:
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity(rows):
    cols = len(rows[0])
    assert sparse_rank(q(rows)) + len(sparse_kernel(q(rows), cols)) == cols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_nullspace_vectors_annihilate(rows):
    for v in sparse_kernel(q(rows), len(rows[0])):
        assert all(map(_canonical, v.values()))
        for row in rows:
            assert sum(row[c] * x for c, x in v.items()) == 0


@settings(max_examples=60, deadline=None)
@given(matrices, st.lists(rationals, min_size=1, max_size=5))
def test_solve_solves(rows, rhs):
    rhs = (rhs * len(rows))[: len(rows)]
    [sol] = sparse_solve(q(rows), [dict(enumerate(rhs))])
    if sol is None:
        return
    for row, b in zip(rows, rhs):
        assert sum(row[c] * x for c, x in sol.items()) == b


def gauss_jordan(rows, ncols):
    """Reduced row-echelon form over the rationals: (pivot columns, rows)."""
    m = [[F(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if r is None:
            continue
        top = len(pivots)
        m[top], m[r] = m[r], m[top]
        m[top] = [v / m[top][col] for v in m[top]]
        for i in range(len(m)):
            if i != top and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        pivots.append(col)
    return pivots, m[: len(pivots)]


int_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
            max_size=6,
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(int_matrices)
def test_bareiss_matches_gauss_jordan(case):
    ncols, rows = case
    before = copy.deepcopy(rows)
    rank, pivots, ech = bareiss_echelon(rows, ncols)
    assert rows == before
    want_pivots, rref = gauss_jordan(rows, ncols)
    assert rank == len(want_pivots) == len(ech)
    assert pivots == want_pivots
    for row, p in zip(ech, pivots):
        assert all(isinstance(v, int) for v in row)
        assert not any(row[:p]) and row[p]
        rest = [F(v) for v in row]
        for c, basis_row in zip(want_pivots, rref):
            rest = [a - rest[c] * b for a, b in zip(rest, basis_row)]
        assert not any(rest), "echelon row outside the input row space"


scalars = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(
        F, st.integers(min_value=-6, max_value=6), st.integers(min_value=2, max_value=5)
    ).map(rat),
)


@st.composite
def rank_cases(draw):
    """(columns, dense rows): ints and Fractions mixed.  A random row has up
    to ``fill`` nonzero entries; row i of the band has entries in columns
    i and i + 1 (mod the width), so a long band makes the elimination fill
    in; other rows are zero, repeat an earlier row or combine two."""
    ncols = draw(st.integers(min_value=1, max_value=9))
    fill = draw(st.integers(min_value=1, max_value=ncols))
    style = draw(st.sampled_from(["band", "random"]))
    kinds = st.sampled_from([style, style, style, "zero", "repeat", "combine"])
    rows = []
    for i in range(draw(st.integers(min_value=0, max_value=9))):
        kind = draw(kinds)
        row = [0] * ncols
        if kind == "band":
            row[i % ncols] = draw(scalars)
            row[(i + 1) % ncols] = draw(scalars)
        elif kind == "repeat" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combine" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(scalars), draw(scalars)
            row = [rat(s * x + t * y) for x, y in zip(a, b)]
        elif kind != "zero":
            for j in draw(st.sets(st.integers(min_value=0, max_value=ncols - 1), max_size=fill)):
                row[j] = draw(scalars)
        rows.append(row)
    return ncols, rows


def bareiss_pivots(dense, ncols):
    """The reference pivots: denominators cleared row by row, then Bareiss."""
    ints = []
    for row in dense:
        mult = lcm(*(F(v).denominator for v in row))
        ints.append([int(v * mult) for v in row])
    return bareiss_echelon(ints, ncols)[1]


@seed(2015)
@settings(max_examples=300, deadline=None)
@given(rank_cases())
def test_sparse_rank_matches_bareiss(case):
    """The rank and the leftmost pivots of a matrix and of its transpose
    are the Bareiss ones, with or without the zero entries of the rows."""
    ncols, dense = case
    sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
    transpose = [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(ncols)]
    before = copy.deepcopy((dense, sparse, transpose))
    pivots = bareiss_pivots(dense, ncols)
    want = len(pivots)
    assert sparse_rank(sparse) == want
    assert sparse_rank(transpose) == want
    assert sparse_rank([dict(enumerate(row)) for row in dense]) == want
    assert sparse_pivots(sparse) == pivots
    dense_t = [[row[j] for row in dense] for j in range(ncols)]
    assert sparse_pivots(transpose) == bareiss_pivots(dense_t, len(dense))
    assert (dense, sparse, transpose) == before


@st.composite
def solve_cases(draw):
    """(columns, dense rows, right-hand sides): square, under- and
    overdetermined band, sparse and dense matrices of ints and Fractions
    mixed, with up to seven right-hand sides.  A right-hand side is a
    combination of columns (consistent), a unit vector, zero, or drawn at
    random (on a matrix of low rank, mostly inconsistent)."""
    shape = draw(st.sampled_from(["square", "tall", "wide"]))
    ncols = draw(st.integers(min_value=1, max_value=8))
    nrows = {
        "square": ncols,
        "tall": ncols + draw(st.integers(min_value=1, max_value=4)),
        "wide": draw(st.integers(min_value=0, max_value=ncols - 1)),
    }[shape]
    style = draw(st.sampled_from(["band", "sparse", "dense"]))
    rows = []
    for i in range(nrows):
        row = [0] * ncols
        if style == "band":
            row[i % ncols] = draw(scalars)
            row[(i + 1) % ncols] = draw(scalars)
        elif style == "dense":
            row = [draw(scalars) for _ in range(ncols)]
        else:
            for j in draw(st.sets(st.integers(min_value=0, max_value=ncols - 1), max_size=3)):
                row[j] = draw(scalars)
        if rows and draw(st.integers(min_value=0, max_value=4)) == 0:
            row = list(draw(st.sampled_from(rows)))  # a repeated row lowers the rank
        rows.append(row)
    rhs = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        kind = draw(st.sampled_from(["combination", "unit", "zero", "random"]))
        if kind == "combination":
            x = [draw(scalars) for _ in range(ncols)]
            b = [rat(sum(a * q for a, q in zip(row, x))) for row in rows]
        elif kind == "unit" and nrows:
            i = draw(st.integers(min_value=0, max_value=nrows - 1))
            b = [int(r == i) for r in range(nrows)]
        elif kind == "random":
            b = [draw(scalars) for _ in range(nrows)]
        else:
            b = [0] * nrows
        rhs.append(b)
    return ncols, rows, rhs


@seed(2015)
@settings(max_examples=300, deadline=None)
@given(solve_cases())
def test_sparse_solve_and_kernel_match_bareiss(case):
    """One elimination for many right-hand sides gives, for each, exactly the
    dense Bareiss solution (free variables 0, leftmost pivots) or its None,
    and exactly the Bareiss kernel basis, with or without the zero entries
    of the rows and right-hand sides; the rank and the kernel add up to the
    columns, and no input is mutated."""
    ncols, dense, rhs = case
    sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
    columns = [{i: v for i, v in enumerate(b) if v} for b in rhs]
    filled = [dict(enumerate(row)) for row in dense]
    before = copy.deepcopy((dense, rhs, sparse, columns, filled))
    want = [solve_rows_reference(dense, b, ncols) for b in rhs]
    got = sparse_solve(sparse, columns)
    assert len(got) == len(want)
    for sol, ref in zip(got, want):
        if ref is None:
            assert sol is None
            continue
        assert list(sol) == sorted(sol) and all(map(_canonical, sol.values()))
        assert tuple(sol.get(c, 0) for c in range(ncols)) == ref
    assert sparse_solve(filled, [dict(enumerate(b)) for b in rhs]) == got
    kernel = nullspace_rows_reference(dense, ncols)
    basis = sparse_kernel(sparse, ncols)
    assert [tuple(v.get(c, 0) for c in range(ncols)) for v in basis] == kernel
    assert all(list(v) == sorted(v) and all(map(_canonical, v.values())) for v in basis)
    assert sparse_kernel(filled, ncols) == basis
    assert sparse_rank(sparse) + len(basis) == ncols
    assert (dense, rhs, sparse, columns, filled) == before


def test_sparse_solve_takes_rows_with_no_entries():
    """A right-hand side entry on an empty row is inconsistent unless zero;
    zero entries of the input are ignored."""
    rows = [{0: 2, 1: 0}, {}, {1: F(1, 2)}]
    assert sparse_solve(rows, [{0: 4, 2: 1}, {1: 1}, {1: 0}, {}]) == [{0: 2, 1: 2}, None, {}, {}]
    assert sparse_kernel(rows, 3) == [{2: 1}]
    assert sparse_solve([], [{}]) == [{}] and sparse_kernel([], 2) == [{0: 1}, {1: 1}]


def test_rat_round_trip():
    assert parse_rat("3/2") == F(3, 2)
    assert parse_rat("-5") == F(-5)
    assert format_rat(F(3, 2)) == "3/2"
    assert format_rat(F(4, 2)) == "2"
    assert format_rat(F(-1, 3)) == "-1/3"
    for q in (rat(F(4, 2)), rat(3), rat(True), parse_rat("6/3"), parse_rat(-5)):
        assert type(q) is int
    assert type(rat(F(3, 2))) is Fraction and type(parse_rat("3/2")) is Fraction


@pytest.mark.parametrize(
    "text",
    [
        "0", "-0", "00", "7", "-12", "+1", " 1 ", "\t3\n", "١",
        "1/2", "-4/6", "6/3", " -3/9 ", "1e3", "2.5",
        pytest.param(
            "1_0",
            marks=pytest.mark.skipif(
                sys.version_info < (3, 11), reason="Fraction parses underscores from 3.11"
            ),
        ),
    ],
)
def test_parse_rat_agrees_with_fraction(text):
    """The int fast path accepts only strings Fraction accepts, with the same value."""
    q, want = parse_rat(text), rat(F(text))
    assert q == want and type(q) is type(want)
    assert (type(q) is int) == (F(text).denominator == 1)


@pytest.mark.parametrize("value", ["1/0", "x", "", 1.5, 2.0, True, None, [1]])
def test_parse_rat_rejects_malformed_values(value):
    with pytest.raises(InputError, match="malformed"):
        parse_rat(value)


def test_solvers_on_a_zero_matrix():
    """Back-substitution divides, so its scalars come out as ``rat`` gives
    them whether the input holds ints or Fractions."""
    [v] = sparse_kernel([{0: F(0)}], 1)
    assert v == {0: 1} and type(v[0]) is int
    assert sparse_solve([{0: F(0)}], [{0: F(0)}]) == [{}]
    [sol] = sparse_solve([{0: F(2), 1: F(0)}], [{0: F(3)}])
    assert sol == {0: F(3, 2)} and type(sol[0]) is Fraction
    [sol] = sparse_solve([{0: F(2), 1: F(0)}], [{0: F(4)}])
    assert sol == {0: 2} and type(sol[0]) is int
