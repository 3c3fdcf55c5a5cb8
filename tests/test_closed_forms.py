"""The dimension vectors of the shipped models against closed forms from the
literature (Keel 1992 for M_{0,n}-bar, Fulton-MacPherson 1994 for X[n]).

The formulas live in ``perfbench/closed_forms.py``, which shares no code
with the engine; it is imported by path, so it stays the one implementation.
"""

import importlib.util
from pathlib import Path

import pytest

from wonder.models import fm_power, keel_model
from wonder.nests import li_decomposition

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "closed_forms.py"
_SPEC = importlib.util.spec_from_file_location("closed_forms", _PATH)
closed_forms = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(closed_forms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_keel_matches_keel_1992(n):
    _, poincare = li_decomposition(keel_model(n))
    assert poincare == closed_forms.keel_poincare(n + 3)


@pytest.mark.parametrize(
    "m,n,min_size",
    [(1, 2, 2), (1, 3, 2), (1, 4, 2), (1, 5, 2), (2, 2, 2), (2, 3, 2), (2, 4, 2), (2, 4, 3)],
)
def test_fm_matches_fulton_macpherson_1994(m, n, min_size):
    _, poincare = li_decomposition(fm_power(f"p{m}", n, min_size=min_size))
    assert poincare == closed_forms.fm_poincare(m, n, min_size=min_size)
