import pytest

from wonder.errors import InputError
from wonder.fixtures import fm_p1_3_oracle, keel_2_oracle, keel_3_oracle, oracle_fixture
from wonder.io import ring_payload
from wonder.models import _PowerAlg
from wonder.oracle import compare_with_oracle, run_oracle


def test_fm3_fixture():
    run = run_oracle(fm_p1_3_oracle())
    assert run.dims == [1, 4, 4, 1]
    assert run.verdict.is_pd


def test_keel2_fixture():
    run = run_oracle(keel_2_oracle())
    assert run.dims == [1, 5, 1]
    assert run.verdict.is_pd


def test_keel3_fixture_step_count():
    payload = keel_3_oracle()
    assert len(payload["steps"]) == 13  # three points, then ten disjoint curves
    run = run_oracle(payload)
    assert run.dims == [1, 16, 16, 1]
    assert run.verdict.is_pd


def test_bundle_step():
    line = _PowerAlg(["x"], 1).alg
    payload = {
        "kind": "oracle",
        "base": ring_payload(line, 1),
        "steps": [
            {"op": "projective_bundle", "name": "xi", "rank": 2, "chern": [[], []]}
        ],
    }
    run = run_oracle(payload)
    assert run.dims == [1, 2, 1]
    assert run.socle_degree == 2
    assert run.verdict.is_pd


def test_unknown_step_rejected():
    line = _PowerAlg(["x"], 1).alg
    payload = {
        "kind": "oracle",
        "base": ring_payload(line, 1),
        "steps": [{"op": "warp"}],
    }
    with pytest.raises(InputError, match="unknown oracle step"):
        run_oracle(payload)


def test_fixture_registry():
    assert oracle_fixture("keel", 2)["kind"] == "oracle"
    with pytest.raises(InputError):
        oracle_fixture("keel", 5)


@pytest.mark.parametrize("rank", [3, 1, "2", None])
def test_bundle_rank_must_match_chern(rank):
    """A bundle step's ``rank``, when present, is an int equal to the number
    of its Chern classes; anything else names the field."""
    line = _PowerAlg(["x"], 1).alg
    step = {"op": "projective_bundle", "name": "xi", "rank": rank, "chern": [[], []]}
    payload = {"kind": "oracle", "base": ring_payload(line, 1), "steps": [step]}
    with pytest.raises(InputError, match="oracle step 0 field 'rank'"):
        run_oracle(payload)
    del step["rank"]
    assert run_oracle(payload).dims == [1, 2, 1]


def test_correspondence_onto_a_bundle_block_zero(fm3_ring):
    """A summand can map onto block 0 of a bundle step, whose labels are the
    bare labels of the ring the bundle is over: here the exceptional summand
    of fm-p1 n=3, through a rank-1 bundle after its blow-up, onto the
    classes the blow-up labelled ED123 and hD*ED123."""
    payload = fm_p1_3_oracle()
    payload["steps"].append({"op": "projective_bundle", "name": "xi", "chern": [[]]})
    payload["correspondence"] = [
        {
            "nest": ["D123"],
            "mu": [["D123", 1]],
            "step": "xi",
            "power": 0,
            "basis_map": {"1": "ED123", "h123": "hD*ED123"},
        }
    ]
    n = len(fm3_ring.basis)
    report = compare_with_oracle(fm3_ring, payload, samples=n * (n + 1) // 2)
    assert report.ok, report.summary()
    assert report.products_checked == n * (n + 1) // 2
