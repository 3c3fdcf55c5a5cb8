"""Oracle fixture payloads for the shipped models.

Each fixture scripts an explicit blow-up sequence with hand-derived center
data (classes written over ambient basis labels), plus a basis
correspondence so sampled products can be compared against the built ring.
"""

from __future__ import annotations

import itertools

from wonder.errors import InputError
from wonder.io import ring_payload
from wonder.models import MARKERS, _PowerAlg


def _p1_power_payload(n):
    wrap = _PowerAlg([str(i) for i in range(1, n + 1)], 1)
    return ring_payload(wrap.alg, n)


def _point_payload():
    from wonder.algebra import GradedAlgebra

    return ring_payload(GradedAlgebra([1], [["1"]], []), 0)


def _line_payload(label):
    wrap = _PowerAlg([label], 1)
    return ring_payload(wrap.alg, 1)


def fm_p1_3_oracle() -> dict:
    """One blow-up of the triple product of lines along the small diagonal."""
    base = _p1_power_payload(3)
    hs = ["h1", "h2", "h3"]
    step = {
        "op": "blow_up",
        "name": "ED123",
        "center": _line_payload("D"),
        "pullback": [["1", "1", "1"]] + [["hD", h, "1"] for h in hs],
        "pushforward": "adjoint",
        "chern": [
            [["h1", "2"], ["h2", "2"]],
            [["h1*h2", "1"], ["h1*h3", "1"], ["h2*h3", "1"]],
        ],
    }
    correspondence = [
        {
            "nest": ["D123"],
            "mu": [["D123", 1]],
            "step": "ED123",
            "power": 1,
            "basis_map": {"1": "1", "h123": "hD"},
        }
    ]
    return {
        "kind": "oracle",
        "base": base,
        "steps": [step],
        "correspondence": correspondence,
    }


def keel_2_oracle() -> dict:
    """Three point blow-ups on the product of two lines."""
    base = _p1_power_payload(2)
    steps = []
    correspondence = []
    for mk in MARKERS:
        steps.append(
            {
                "op": "blow_up",
                "name": f"E{mk}",
                "center": _point_payload(),
                "pullback": [["1", "1", "1"]],
                "pushforward": "adjoint",
                "chern": [[], [["h1*h2", "1"]]],
            }
        )
        correspondence.append(
            {
                "nest": [f"D12@{mk}"],
                "mu": [[f"D12@{mk}", 1]],
                "step": f"E{mk}",
                "power": 1,
                "basis_map": {"1": "1"},
            }
        )
    return {
        "kind": "oracle",
        "base": base,
        "steps": steps,
        "correspondence": correspondence,
    }


def keel_3_oracle() -> dict:
    """The triple product of lines: three triple-point blow-ups, then the
    small diagonal, then the nine frozen-pair curves (all disjoint after the
    points are gone, so later steps only pull the data back)."""
    base = _p1_power_payload(3)
    hs = ["h1", "h2", "h3"]
    steps = []
    correspondence = []

    for mk in MARKERS:
        steps.append(
            {
                "op": "blow_up",
                "name": f"E{mk}",
                "center": _point_payload(),
                "pullback": [["1", "1", "1"]],
                "pushforward": "adjoint",
                "chern": [[], [], [["h1*h2*h3", "1"]]],
            }
        )
        for power in (1, 2):
            correspondence.append(
                {
                    "nest": [f"D123@{mk}"],
                    "mu": [[f"D123@{mk}", power]],
                    "step": f"E{mk}",
                    "power": power,
                    "basis_map": {"1": "1"},
                }
            )

    # strict transform of the small diagonal: a line through all three blown
    # points; each one twists the normal bundle down by two
    diag_c1 = [["h1", "2"], ["h2", "2"]] + [[f"E{mk}", "-2"] for mk in MARKERS]
    diag_c2 = [["h1*h2", "1"], ["h1*h3", "1"], ["h2*h3", "1"]] + [
        [f"E{mk}^2", "1"] for mk in MARKERS
    ]
    steps.append(
        {
            "op": "blow_up",
            "name": "ED",
            "center": _line_payload("D"),
            "pullback": [["1", "1", "1"]]
            + [["hD", h, "1"] for h in hs]
            + [["hD", f"E{mk}", "1"] for mk in MARKERS],
            "pushforward": "adjoint",
            "chern": [diag_c1, diag_c2],
        }
    )
    correspondence.append(
        {
            "nest": ["D123"],
            "mu": [["D123", 1]],
            "step": "ED",
            "power": 1,
            "basis_map": {"1": "1", "h123": "hD"},
        }
    )

    # frozen-pair curves {x_i = x_j = p}: each passes through exactly one
    # blown point, where its trivial normal bundle twists down by two
    for (i, j) in itertools.combinations((1, 2, 3), 2):
        k = next(x for x in (1, 2, 3) if x not in (i, j))
        for mk in MARKERS:
            name = f"E{i}{j}at{mk}"
            steps.append(
                {
                    "op": "blow_up",
                    "name": name,
                    "center": _line_payload("C"),
                    "pullback": [
                        ["1", "1", "1"],
                        ["hC", f"h{k}", "1"],
                        ["hC", f"E{mk}", "1"],
                    ],
                    "pushforward": "adjoint",
                    "chern": [
                        [[f"E{mk}", "-2"]],
                        [[f"h{i}*h{j}", "1"], [f"E{mk}^2", "1"]],
                    ],
                }
            )
            correspondence.append(
                {
                    "nest": [f"D{i}{j}@{mk}"],
                    "mu": [[f"D{i}{j}@{mk}", 1]],
                    "step": name,
                    "power": 1,
                    "basis_map": {"1": "1", f"h{k}": "hC"},
                }
            )
    return {
        "kind": "oracle",
        "base": base,
        "steps": steps,
        "correspondence": correspondence,
    }


def oracle_fixture(name: str, n: int) -> dict:
    if name == "fm-p1" and n == 3:
        return fm_p1_3_oracle()
    if name == "keel" and n == 2:
        return keel_2_oracle()
    if name == "keel" and n == 3:
        return keel_3_oracle()
    raise InputError(f"no shipped oracle fixture for {name} with n={n}")
