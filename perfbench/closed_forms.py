"""Poincare polynomials from the literature, computed without the engine.

They gate the dimension vectors the engine prints:

* Keel 1992, *Intersection theory of moduli space of stable n-pointed
  curves of genus zero*: the recursion for the Poincare polynomial of
  M_{0,n}-bar.  ``wonder model keel --n k`` is M_{0,k+3}-bar.
* Fulton-MacPherson 1994, *A compactification of configuration spaces*:
  X[n] as a sum over nests (forests of diagonals), here for X = P^m, also
  with only the diagonals that merge at least ``min_size`` points blown up.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _add(p, q):
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return out


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def keel_poincare(n: int) -> list[int]:
    """Betti numbers of M_{0,n}-bar, degree by degree (n >= 3).

    q_3 = 1 and q_{m+1} = (1+t) q_m + t/2 sum_{j=2}^{m-2} C(m,j) q_{j+1} q_{m-j+1}.
    """
    if n < 3:
        raise ValueError("M_{0,n}-bar needs n >= 3")
    q = {3: [Fraction(1)]}
    for m in range(3, n):
        acc = _mul([1, 1], q[m])
        for j in range(2, m - 1):
            term = _mul(q[j + 1], q[m - j + 1])
            acc = _add(acc, _mul([0, Fraction(comb(m, j), 2)], term))
        q[m + 1] = acc
    out = _trim(q[n])
    if any(x.denominator != 1 for x in out):
        raise ArithmeticError("Keel recursion left a fraction")
    return [int(x) for x in out]


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def fm_poincare(m: int, n: int, min_size: int = 2) -> list[int]:
    """Betti numbers of X[n] for X = P^m with the diagonals that merge at
    least ``min_size`` points blown up (all diagonals by default).

    A nest is a forest of such diagonals.  A node S whose children (maximal nest
    members inside S, plus uncovered points) number c has codimension
    m(c-1) over them and contributes t + ... + t^{m(c-1)-1}; the roots of
    the forest partition the points, and the burrow is X^{#roots}.
    """
    tree = {}  # |S| -> sum over the trees rooted at S

    def partitions_sum(size, weight, min_blocks):
        total = [0]
        for part in _set_partitions(list(range(size))):
            if len(part) < min_blocks:
                continue
            term = weight(len(part))
            if any(1 < len(block) < min_size for block in part):
                continue
            for block in part:
                if len(block) > 1:
                    term = _mul(term, tree[len(block)])
            total = _add(total, term)
        return total

    def node(c):
        return [0] + [1] * (m * (c - 1) - 1)

    def burrow(k):
        out = [1]
        for _ in range(k):
            out = _mul(out, [1] * (m + 1))
        return out

    for s in range(min_size, n + 1):
        tree[s] = partitions_sum(s, node, 2)
    return _trim(partitions_sum(n, burrow, 1))
