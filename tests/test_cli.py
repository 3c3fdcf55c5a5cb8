import json

import pytest

from wonder import __version__, io
from wonder.cli import main
from wonder.engine import build_ring, presentation_report
from wonder.errors import ComputationError, InputError, InvariantViolation
from wonder.models import _PowerAlg

from builders import edge_entry, own_maps


MISSING = object()  # a parametrized field that is deleted, not set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exit_code_attributes():
    assert InputError("x").exit_code == 1
    assert ComputationError("x").exit_code == 2
    assert InvariantViolation("x").exit_code == 3


def test_model_build_betti_pipeline(tmp_path, capsys):
    d = tmp_path / "d.json"
    r = tmp_path / "r.json"
    assert main(["model", "fm-p1", "--n", "3", "--out", str(d)]) == 0
    assert main(["build", str(d), "--out", str(r)]) == 0
    code, out, _ = run(capsys, "betti", str(r))
    assert code == 0
    assert out.strip().splitlines()[-1] == "1 4 4 1"


def test_keel_pd_pipeline(tmp_path, capsys):
    d = tmp_path / "d.json"
    r = tmp_path / "r.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    main(["build", str(d), "--out", str(r)])
    code, out, _ = run(capsys, "pd", str(r))
    assert code == 0
    assert out.strip() == "PD: yes; discrepancies: 0 0 0"


def test_pd_json(tmp_path, capsys):
    d = tmp_path / "d.json"
    r = tmp_path / "r.json"
    main(["model", "fm-p1", "--n", "2", "--out", str(d)])
    main(["build", str(d), "--out", str(r)])
    code, out, _ = run(capsys, "pd", str(r), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["is_pd"] is True


def test_decompose(tmp_path, capsys):
    d = tmp_path / "d.json"
    main(["model", "fm-p1", "--n", "3", "--out", str(d)])
    code, out, _ = run(capsys, "decompose", str(d))
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "nest={} mu={} burrow=1|2|3 shift=0 dims=1 3 3 1"
    assert lines[-1] == "poincare: 1 4 4 1"
    assert "nest={D123} mu={D123:1} burrow=123 shift=1 dims=0 1 1 0" in lines


def test_validate_failure(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{ truncated")
    code, _, err = run(capsys, "validate", str(f))
    assert code == 1
    assert "cannot parse" in err


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "betti", "--bogus")
    assert code == 1


def test_curve_model_below_genus_two_exits_1(capsys):
    """The curve model needs genus >= 2: at genus 1 the ambient ring of
    four coordinates has no perfect pairing, so the command exits 1 naming
    the bound, with no traceback."""
    code, out, err = run(capsys, "model", "fm-curve", "--n", "4", "--genus", "1")
    assert code == 1 and out == ""
    assert "the curve model needs genus >= 2, not 1" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["keel", "--n", "3", "--min-size", "3"], "--min-size"),
        (["keel", "--n", "3", "--genus", "2"], "--genus"),
        (["fm-p1", "--n", "3", "--genus", "3"], "--genus"),
        (["fm-p2", "--n", "3", "--min-size", "3", "--genus", "2"], "--genus"),
        (["synth", "--dims", "1,2,1", "--n", "3"], "--n"),
        (["keel-oracle", "--n", "3", "--seed", "1"], "--seed"),
        (["fm-curve", "--n", "3", "--dims", "1,2,1"], "--dims"),
    ],
)
def test_model_refuses_a_flag_it_does_not_read(capsys, argv, flag):
    """A flag the chosen model does not read exits 1 naming the flag,
    instead of writing the model without it; a default given explicitly
    counts as given."""
    code, out, err = run(capsys, "model", *argv)
    assert code == 1 and out == ""
    assert f"error: model {argv[0]} does not read {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "explicit, implicit",
    [
        (["fm-curve", "--n", "3", "--min-size", "2", "--genus", "2"], ["fm-curve", "--n", "3"]),
        (["fm-p1", "--n", "2", "--min-size", "2"], ["fm-p1"]),
        (["synth", "--dims", "1,2,1", "--seed", "0"], ["synth", "--dims", "1,2,1"]),
    ],
)
def test_model_flags_left_out_take_their_defaults(capsys, explicit, implicit):
    code, out, _ = run(capsys, "model", *explicit)
    assert code == 0 and out
    assert run(capsys, "model", *implicit) == (0, out, "")


def test_model_with_no_diagonal_writes_the_one_burrow(capsys):
    """fm-p1 --n 3 --min-size 9 has no building element: one burrow, no
    edge, and it validates."""
    code, out, _ = run(capsys, "model", "fm-p1", "--n", "3", "--min-size", "9")
    assert code == 0
    diagram = io.load_diagram(out)
    assert (len(diagram.elements), len(diagram.burrows), len(diagram.edges)) == (0, 1, 0)
    assert diagram.validate().ok


def test_rewrite_cap_exit_code(tmp_path, capsys):
    d = tmp_path / "d.json"
    main(["model", "fm-p1", "--n", "3", "--out", str(d)])
    code, _, err = run(capsys, "build", str(d), "--max-rewrites", "0")
    assert code == 2
    assert "rewrite cap" in err


def test_negative_rewrite_cap_is_an_input_error(tmp_path, capsys):
    d = tmp_path / "d.json"
    main(["model", "keel", "--n", "3", "--out", str(d)])
    code, out, err = run(capsys, "build", str(d), "--max-rewrites", "-1")
    assert (code, out) == (1, "")
    assert err == "error: rewrite cap -1 is not a nonnegative integer\n"


def test_oracle_and_compare(tmp_path, capsys):
    d = tmp_path / "d.json"
    fx = tmp_path / "fx.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    main(["model", "keel-oracle", "--n", "2", "--out", str(fx)])
    code, out, _ = run(capsys, "oracle", str(fx))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dims: 1 5 1"
    assert lines[1] == "PD: yes; discrepancies: 0 0 0"
    code, out, _ = run(capsys, "compare", "--diagram", str(d), "--oracle", str(fx))
    assert code == 0
    assert "result: pass" in out


def test_compare_with_no_samples_says_no_product_was_checked(tmp_path, capsys):
    """With --samples 0 on the keel --n 3 diagram and fixture, which declares
    a correspondence, the dims agree and the report says that no product
    was checked, so it does not read like a dims-only comparison."""
    d = tmp_path / "d.json"
    fx = tmp_path / "fx.json"
    main(["model", "keel", "--n", "3", "--out", str(d)])
    main(["model", "keel-oracle", "--n", "3", "--out", str(fx)])
    code, out, _ = run(
        capsys, "compare", "--diagram", str(d), "--oracle", str(fx), "--samples", "0"
    )
    assert code == 0
    assert out.splitlines()[2:] == ["0 sampled products checked", "result: pass"]


def test_compare_rejects_a_negative_sample_count(tmp_path, capsys):
    d = tmp_path / "d.json"
    fx = tmp_path / "fx.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    main(["model", "keel-oracle", "--n", "2", "--out", str(fx)])
    code, out, err = run(
        capsys, "compare", "--diagram", str(d), "--oracle", str(fx), "--samples", "-1"
    )
    assert (code, out) == (1, "")
    assert err == "error: sample count -1 is not a nonnegative integer\n"


def _no_center(fx):
    del fx["steps"][0]["center"]


def _step_is_int(fx):
    fx["steps"][0] = 5


def _short_pullback_entry(fx):
    fx["steps"][0]["pullback"][0] = fx["steps"][0]["pullback"][0][:2]


def _base_is_int(fx):
    fx["base"] = 3


def _steps_is_object(fx):
    fx["steps"] = {}


def _bundle_rank_disagrees(fx):
    fx["steps"].append({"op": "projective_bundle", "name": "xi", "rank": 3, "chern": [[], []]})


def _repeated_chern_label(fx):
    # the repeat has the same value, so keeping either one would run
    fx["steps"][0]["chern"][1].append(["h1*h2", "1"])


def _repeated_pullback_pair(fx):
    fx["steps"][0]["pullback"].append(["1", "1", "1"])


def _bundle_rank_is_true(fx):
    # JSON true is not the integer 1, although one Chern class agrees with it
    fx["steps"].append({"op": "projective_bundle", "name": "xi", "rank": True, "chern": [[]]})


def _power_is_true(fx):
    fx["correspondence"][0]["power"] = True


@pytest.mark.parametrize(
    "mutate,field",
    [
        (_repeated_chern_label, "oracle step 0 field 'chern' repeats basis label 'h1*h2' in c2"),
        (_repeated_pullback_pair, "oracle step 0 field 'pullback' repeats the pair ('1', '1')"),
        (_no_center, "'center'"),
        (_step_is_int, "oracle step 0"),
        (_short_pullback_entry, "pullback"),
        (_base_is_int, "'base'"),
        (_steps_is_object, "'steps'"),
        (_bundle_rank_disagrees, "'rank'"),
        (_bundle_rank_is_true, "field 'rank' is not an integer: True"),
        (_power_is_true, "correspondence entry 0 field 'power' is not an integer: True"),
    ],
)
def test_oracle_rejects_malformed_fixture(tmp_path, capsys, mutate, field):
    """A malformed keel --n 2 oracle fixture exits 1 from both commands that
    read it, with a message naming the field, not a traceback."""
    d = tmp_path / "d.json"
    fx = tmp_path / "fx.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    main(["model", "keel-oracle", "--n", "2", "--out", str(fx)])
    payload = json.loads(fx.read_text())
    mutate(payload)
    fx.write_text(json.dumps(payload))
    commands = [["compare", "--diagram", str(d), "--oracle", str(fx)]]
    if "correspondence" not in field:  # which `wonder oracle` does not read
        commands.insert(0, ["oracle", str(fx)])
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 1, (argv[0], out)
        assert field in err and "Traceback" not in err, (argv[0], err)


def test_synth_model(tmp_path, capsys):
    r = tmp_path / "r.json"
    assert main(["model", "synth", "--dims", "1,2,1", "--seed", "7", "--out", str(r)]) == 0
    code, out, _ = run(capsys, "pd", str(r))
    assert code == 0 and out.strip() == "PD: yes; discrepancies: 0 0 0"
    rb = tmp_path / "rb.json"
    assert (
        main(
            ["model", "synth", "--dims", "1,2,1", "--break", "1", "--seed", "7", "--out", str(rb)]
        )
        == 0
    )
    code, out, _ = run(capsys, "pd", str(rb))
    assert code == 0 and out.strip() == "PD: no; discrepancies: 0 1 0"



@pytest.mark.parametrize(
    "dims,message",
    [
        ("a,b", "--dims is not a comma-separated list of integers: 'a,b'"),
        ("1,-1,1", "dimension vector (1, -1, 1) has a negative entry"),
    ],
)
def test_synth_rejects_bad_dims(capsys, dims, message):
    code, out, err = run(capsys, "model", "synth", "--dims", dims)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"

def test_presentation_command(tmp_path, capsys):
    d = tmp_path / "d.json"
    main(["model", "fm-p1", "--n", "3", "--out", str(d)])
    code, out, _ = run(capsys, "presentation", str(d))
    assert code == 0
    assert "result: pass" in out


def test_blocks_and_discrepancy(tmp_path, capsys):
    d = tmp_path / "d.json"
    main(["model", "fm-p1", "--n", "3", "--out", str(d)])
    code, out, _ = run(capsys, "blocks", str(d))
    assert code == 0 and "result: pass" in out
    code, out, _ = run(capsys, "discrepancy", str(d))
    assert code == 0 and "matches" in out


def test_validate_ok(tmp_path, capsys):
    d = tmp_path / "d.json"
    main(["model", "keel", "--n", "1", "--out", str(d)])
    code, out, _ = run(capsys, "validate", str(d))
    assert code == 0
    assert "result: pass" in out


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out == f"wonder {__version__}\n"


def test_outputs_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["model", "keel", "--n", "2", "--out", str(a)])
    main(["model", "keel", "--n", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    main(["build", str(a), "--out", str(ra)])
    main(["build", str(b), "--out", str(rb)])
    assert ra.read_bytes() == rb.read_bytes()
    sa, sb = tmp_path / "sa.json", tmp_path / "sb.json"
    main(["model", "synth", "--dims", "1,2,2,1", "--seed", "3", "--out", str(sa)])
    main(["model", "synth", "--dims", "1,2,2,1", "--seed", "3", "--out", str(sb)])
    assert sa.read_bytes() == sb.read_bytes()


@pytest.mark.parametrize(
    "triple,message",
    [
        ([1, 1, 7, "1"], "structure constant index outside 0..2"),
        ([1, 1, -1, "1"], "structure constant index outside 0..2"),
        ([-2, 1, 2, "1"], "structure constant index outside 0..2"),
        ([1, 1, 2.0, "1"], "structure constant index outside 0..2"),
        ([1, 1, 2], "malformed structure constant"),
        ([1, 1, 2, "1/0"], "malformed structure constant"),
        ([1, 1, 2, 1.5], "malformed structure constant 1.5"),
    ],
)
def test_pd_rejects_bad_structure_constant(tmp_path, capsys, triple, message):
    payload = json.loads(io.dump_ring(_PowerAlg(["1"], 2).alg, 2))
    payload["mult"] = [triple]
    r = tmp_path / "r.json"
    r.write_text(json.dumps(payload))
    code, out, err = run(capsys, "pd", str(r))
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "pos,too_large",
    [
        pytest.param(0, False, id="0"),
        pytest.param(1, False, id="1"),
        pytest.param(2, False, id="2"),
        pytest.param(0, True, id="large-degree"),
        pytest.param(1, True, id="large-row"),
        pytest.param(2, True, id="large-column"),
    ],
)
def test_validate_rejects_negative_map_index(tmp_path, capsys, pos, too_large):
    """A negative degree, row or column index of a pullback entry would wrap
    to a valid entry, and one past the end would name no entry; both are
    rejected."""
    d = tmp_path / "d.json"
    main(["model", "fm-p1", "--n", "2", "--out", str(d)])
    payload = json.loads(d.read_text())
    dims = {b["id"]: payload["structures"][b["structure"]]["degrees"] for b in payload["burrows"]}
    small, big, ref = payload["edges"][0]
    entry = payload["maps"][ref]["pullback"][0]
    k = entry[0]
    wrap = [len(dims[big]), dims[small][k], dims[big][k]]
    entry[pos] = wrap[pos] if too_large else entry[pos] - wrap[pos]
    d.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", str(d))
    assert code == 1 and out == ""
    assert "out of range" in err


@pytest.mark.parametrize(
    "where,value",
    [
        ("chern", "1/0"),
        ("chern", "x"),
        ("chern", 1.5),
        ("pullback", "1/0"),
        ("pullback", "x"),
        ("pushforward", True),
        ("relations", 1.5),
    ],
)
def test_validate_rejects_malformed_rational(tmp_path, capsys, where, value):
    """A bad rational anywhere in a diagram file exits 1, naming the value;
    floats and bools are refused, not rounded into the exact arithmetic."""
    d = tmp_path / "d.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    payload = json.loads(d.read_text())
    datum = next(m for m in payload["maps"] if m["chern"][0])
    if where == "chern":
        datum["chern"][0][0][1] = value
    elif where == "relations":
        payload["relations"][0][2][0][1] = value
    else:
        datum[where][0][3] = value
    d.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", str(d))
    assert code == 1 and out == ""
    assert "malformed" in err and repr(value) in err and "Traceback" not in err


def test_presentation_fails_on_a_wrong_declared_relation(tmp_path, capsys):
    """A declared generator that E[x] does not annihilate fails the report."""
    d = tmp_path / "d.json"
    main(["model", "fm-p1", "--n", "3", "--out", str(d)])
    payload = json.loads(d.read_text())
    [entry] = [r for r in payload["relations"] if r[:2] == ["D123", "D12+K2"]]
    entry[2] = [["h1", "1"], ["h2", "1"]]
    d.write_text(json.dumps(payload))
    ring = build_ring(io.load_diagram(d.read_text()), validate=False)
    assert not presentation_report(ring).ok
    code, out, err = run(capsys, "presentation", str(d))
    assert code == 3
    assert any(line.strip().startswith("FAIL (D12+K2)*E[D123]") for line in out.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "entry,message",
    [
        (["D12", "D12+K2"], "is not [element, name, class]"),
        (["D99", "D12+K2", [["h1", "1"]]], "unknown element id 'D99'"),
        (["D12", "D12+K2", [["q9", "1"]]], "unknown basis label 'q9'"),
        (["D12", "D12+K2", [["h1", "1/0"]]], "malformed class"),
        (["D12", "D12+K2", [["h1", "1"], ["h1", "2"]]], "repeated basis label"),
    ],
    ids=["short-entry", "unknown-element", "unknown-label", "bad-rational", "repeated-label"],
)
def test_validate_rejects_malformed_relation(tmp_path, capsys, entry, message):
    d = tmp_path / "d.json"
    main(["model", "fm-p1", "--n", "2", "--out", str(d)])
    payload = json.loads(d.read_text())
    payload["relations"] = [entry]
    d.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", str(d))
    assert code == 1 and out == ""
    assert message in err and "Traceback" not in err


def _cut_pullback_entry(edge, datum):
    datum["pullback"][0] = datum["pullback"][0][:3]


@pytest.mark.parametrize(
    "mutate,message",
    [
        (_cut_pullback_entry, "is not [degree, row, column, value]"),
        (lambda edge, datum: datum.update(pullback=5), "pullback is not a list of map entries"),
        (lambda edge, datum: datum.update(pushforward=5), "pushforward is not a list of map entries"),
        (lambda edge, datum: datum.update(chern=5), "chern is not a list of classes"),
        (lambda edge, datum: edge.__setitem__(0, "nope"), "names an unknown burrow 'nope'"),
    ],
    ids=["short-map-entry", "pullback-int", "pushforward-int", "chern-int", "unknown-burrow"],
)
def test_validate_rejects_malformed_edge(tmp_path, capsys, mutate, message):
    """A malformed edge of a diagram file, or a malformed entry of the maps
    table, exits 1 with a message that names the first edge reading it,
    never with a traceback."""
    d = tmp_path / "d.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    payload = json.loads(d.read_text())
    ref = next(r for r, m in enumerate(payload["maps"]) if m["chern"][0])
    edge = next(e for e in payload["edges"] if e[2] == ref)
    mutate(edge, payload["maps"][ref])
    d.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", str(d))
    assert code == 1 and out == ""
    assert f"edge {edge[0]}<{edge[1]}" in err and message in err
    assert "Traceback" not in err


def _inline_format(payload):
    """The payload as older diagram files had it: degrees and structure
    constants on every burrow, and on every edge an object with its maps
    and its Chern classes by basis label."""
    labels = {b["id"]: [l for ls in b["basis_labels"] for l in ls] for b in payload["burrows"]}
    for b in payload["burrows"]:
        b.update(payload["structures"][b.pop("structure")])
    edges = []
    for small, big, ref in payload["edges"]:
        datum = dict(payload["maps"][ref])
        datum["chern"] = [[[labels[big][g], q] for g, q in c] for c in datum["chern"]]
        edges.append({"small": small, "big": big, **datum})
    payload["edges"] = edges
    del payload["structures"], payload["maps"]


def test_validate_refuses_the_older_inline_format(tmp_path, capsys):
    """A diagram file that keeps an algebra on each burrow and inline maps
    on each edge, as older files did, is refused with exit 1, not read."""
    d = tmp_path / "d.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    payload = json.loads(d.read_text())
    _inline_format(payload)
    assert "pullback" in payload["edges"][0] and "mult" in payload["burrows"][0]
    d.write_text(json.dumps(payload))
    for command in ("validate", "build"):
        code, out, err = run(capsys, command, str(d))
        assert code == 1 and out == ""
        assert "no structures table" in err and "older format" in err
        assert "Traceback" not in err


def _point_edge_reads_a_line_datum(payload):
    """The point 1@0|2@1 in the ambient reads the datum of the line 12 in
    it, whose degree-1 pullback entries the point has no room for."""
    edge_entry(payload, "1@0|2@1", "1|2")[2] = edge_entry(payload, "12", "1|2")[2]


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda p: p["elements"][0].update(codim=1.5), "element D12 codim 1.5 is not an integer"),
        (lambda p: p["elements"][0].update(codim="x"), "element D12 codim 'x' is not an integer"),
        (lambda p: p["burrows"][0].update(codim="x"), "burrow 12 codim 'x' is not an integer"),
        (lambda p: p.update(socle_degree="x"), "socle_degree 'x' is not an integer"),
        (lambda p: p["structures"][0].update(degrees=["x"]), "degrees ['x'] is not a list of integers"),
        (
            lambda p: p["intersections"].update(meets=[["12", "12@0", "12@0"]]),
            "diagram field intersections.meets is not read",
        ),
        (lambda p: p["elements"][0].update(index_set=5), "element D12 index_set 5 is not a list of strings"),
        (lambda p: p["elements"][0].update(index_set="12"), "element D12 index_set '12' is not a list of strings"),
        (lambda p: p["elements"][0].update(index_set=[1, 2]), "element D12 index_set [1, 2] is not a list of strings"),
        (lambda p: p["burrows"][0].update(defining_set=5), "burrow 12 defining_set 5 is not a list of strings"),
        (lambda p: p["burrows"][0].update(defining_set=[["D12"]]), "burrow 12 defining_set [['D12']] is not a list of strings"),
        (lambda p: p["intersections"].update(singles=["D12"]), "singles ['D12'] is not an object of burrow ids"),
        (lambda p: p["intersections"]["singles"].update(D12=5), "is not an object of burrow ids"),
        (lambda p: p.update(nests={"explicit": 5}), "explicit nests 5 is not a list of lists"),
        (lambda p: p.update(nests={"explicit": [5]}), "explicit nest 5 is not a list of strings"),
        (lambda p: p.update(nests={"explicit": [[["D12"]]]}), "explicit nest [['D12']] is not a list of strings"),
        (lambda p: p.update(nests=5), "nests 5 is neither 'nested-or-disjoint' nor an object"),
        (lambda p: p["elements"][0].update(id=5), "element id 5 is not a string"),
        (lambda p: p["burrows"][0].update(id=5), "burrow id 5 is not a string"),
        (lambda p: p["elements"].__setitem__(0, 5), "elements is not a list of objects"),
        (lambda p: p["burrows"].__setitem__(0, "12"), "burrows is not a list of objects"),
        (lambda p: p.update(edges=5), "edges 5 is not a list of [small, big, maps]"),
        (lambda p: p["structures"][0].update(mult=5), "mult 5 is not a list of structure constants"),
        (
            lambda p: p["symmetry"][0].update(elements={"D1@0": "D2@0", "D2@0": "D2@0"}),
            "symmetry generator 1: element map is not a bijection",
        ),
        (
            lambda p: p["symmetry"][0]["burrows"].update(nope="1|2"),
            "symmetry generator 1: unknown burrow id 'nope'",
        ),
        (
            lambda p: p["symmetry"][0]["bases"].update({"1|2": [0, 2, 1]}),
            "symmetry generator 1: basis map of 1|2 is not a permutation of 0..3",
        ),
        (
            lambda p: p["symmetry"][0]["bases"].update({"1|2": [0, 2, 1, "3"]}),
            "symmetry basis map of 1|2 [0, 2, 1, '3'] is not a list of integers",
        ),
        (lambda p: p["burrows"][0].update(structure=True), "burrow 12 structure True is not an index"),
        (lambda p: p["burrows"][0].update(structure=-1), "burrow 12 structure -1 is not an index"),
        (
            lambda p: p["burrows"][0].update(structure=len(p["structures"])),
            "burrow 12 structure 3 is not an index of its table (0..2)",
        ),
        (lambda p: p["edges"][0].__setitem__(2, True), "edge 12<1|2 maps True is not an index"),
        (lambda p: p["edges"][0].__setitem__(2, -1), "edge 12<1|2 maps -1 is not an index"),
        (
            lambda p: p["edges"][0].__setitem__(2, len(p["maps"])),
            "edge 12<1|2 maps 5 is not an index of its table (0..4)",
        ),
        (lambda p: p["edges"][0].__setitem__(2, "0"), "edge 12<1|2 maps '0' is not an index"),
        (lambda p: p["edges"].__setitem__(0, ["12", "1|2"]), "edge ['12', '1|2'] is not [small, big, maps]"),
        (_point_edge_reads_a_line_datum, "edge 1@0|2@1<1|2 pullback entry (1,0,0) out of range"),
    ],
    ids=[
        "codim-float",
        "codim-str",
        "burrow-codim-str",
        "socle-str",
        "degrees-str",
        "meets-field",
        "index-set-int",
        "index-set-str",
        "index-set-ints",
        "defining-set-int",
        "defining-set-nested",
        "singles-list",
        "singles-int-value",
        "explicit-nests-int",
        "explicit-nest-int",
        "explicit-nest-nested",
        "nests-int",
        "element-id-int",
        "burrow-id-int",
        "element-entry-int",
        "burrow-entry-str",
        "edges-int",
        "burrow-mult-int",
        "symmetry-not-bijective",
        "symmetry-unknown-id",
        "symmetry-short-basis-map",
        "symmetry-str-basis-entry",
        "structure-ref-bool",
        "structure-ref-negative",
        "structure-ref-past-end",
        "maps-ref-bool",
        "maps-ref-negative",
        "maps-ref-past-end",
        "maps-ref-str",
        "edge-short",
        "datum-misfit",
    ],
)
def test_validate_rejects_malformed_diagram_field(tmp_path, capsys, mutate, message):
    """Integer fields take JSON integers only; a file that still lists
    meets is refused, since they derive from the edges; index and defining
    sets and explicit nests are lists of strings, singles map element ids
    to burrow ids, element and burrow ids are strings, and a symmetry
    generator maps known
    ids bijectively and each burrow's basis by a permutation of integers.
    A burrow's ``structure`` and an edge's ``maps`` are indices into their
    tables (Python would take True as 1 and -1 as the last entry), and a
    ``maps`` datum must fit the edge that reads it.
    Anything else exits 1 naming the field, where it used to be truncated
    (1.5 read as 1), read a string as its set of characters, or end in a
    traceback."""
    d = tmp_path / "d.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    payload = json.loads(d.read_text())
    mutate(payload)
    d.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", str(d))
    assert code == 1 and out == ""
    assert message in err and "Traceback" not in err


def test_validate_reports_element_missing_from_singles(tmp_path, capsys):
    """An element with no burrow in the singles table fails its own row and
    the defining sets that name it; the later checks skip it, so the report
    is printed and nothing ends in a traceback."""
    d = tmp_path / "d.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    payload = json.loads(d.read_text())
    del payload["intersections"]["singles"]["D12"]
    d.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", str(d))
    assert code == 1 and "Traceback" not in err
    assert "FAIL table-singles [D12] - element missing from the table" in out
    assert "FAIL defining-set [12] - D12 has no burrow" in out
    assert "ok   table-consistency [elements]" in out
    assert out.endswith("result: fail\n")


def test_short_chern_polynomial_to_the_ambient(tmp_path, capsys):
    """An edge to the ambient with one Chern coefficient deleted fails its
    chern-degree row; every diagram subcommand exits 1 with the report or
    the failure, never with a traceback from reading the missing top
    coefficient as the burrow's class."""
    d = tmp_path / "d.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    payload = json.loads(d.read_text())
    ambient = next(b["id"] for b in payload["burrows"] if b["codim"] == 0)
    edge = next(
        e for e in payload["edges"] if e[1] == ambient and len(payload["maps"][e[2]]["chern"]) == 2
    )
    del own_maps(payload, edge)["chern"][0]
    d.write_text(json.dumps(payload))
    subject = f"{edge[0]}<{edge[1]}"
    code, out, err = run(capsys, "validate", str(d))
    assert code == 1 and "Traceback" not in err
    assert f"FAIL chern-degree [{subject}] - chern degree 1 != codim diff 2" in out
    assert f"class-nonzero [{edge[0]}]" not in out
    for command in ("build", "decompose", "presentation", "discrepancy", "blocks"):
        code, out, err = run(capsys, command, str(d))
        assert code == 1 and "chern-degree" in err, command


def test_validate_reports_a_chern_coefficient_of_mixed_degree(tmp_path, capsys):
    """A Chern class c_1 with a unit term added lies in degrees 0 and 1: its
    chern-shape row fails naming it, where reading its degree raised."""
    d = tmp_path / "d.json"
    main(["model", "keel", "--n", "2", "--out", str(d)])
    payload = json.loads(d.read_text())
    edge = next(e for e in payload["edges"] if payload["maps"][e[2]]["chern"][0])
    own_maps(payload, edge)["chern"][0].insert(0, [0, "1"])
    d.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", str(d))
    assert code == 1 and "Traceback" not in err
    assert f"FAIL chern-shape [{edge[0]}<{edge[1]}] - coefficient 1 is not homogeneous" in out


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("degrees", ["x"], "degrees ['x'] is not a list of integers"),
        ("degrees", [1, 1.0, 1], "degrees [1, 1.0, 1] is not a list of integers"),
        ("degrees", 3, "degrees 3 is not a list of integers"),
        ("socle_degree", "x", "socle_degree 'x' is not an integer"),
        ("socle_degree", 2.0, "socle_degree 2.0 is not an integer"),
        ("socle_degree", MISSING, "ring file missing field 'socle_degree'"),
        ("basis_labels", [["1"], [5], ["h1^2"]], "basis label 5 is not a string"),
        ("basis_labels", [["1"], ["h1"], [None]], "basis label None is not a string"),
        ("basis_labels", "abc", "basis labels 'abc' are not one list per degree"),
        ("mult", 5, "mult 5 is not a list of structure constants"),
    ],
    ids=[
        "degrees-str",
        "degrees-float",
        "degrees-int",
        "socle-str",
        "socle-float",
        "socle-missing",
        "label-int",
        "label-null",
        "labels-str",
        "mult-int",
    ],
)
def test_pd_rejects_malformed_ring_field(tmp_path, capsys, field, value, message):
    payload = json.loads(io.dump_ring(_PowerAlg(["1"], 2).alg, 2))
    if value is MISSING:
        del payload[field]
    else:
        payload[field] = value
    r = tmp_path / "r.json"
    r.write_text(json.dumps(payload))
    code, out, err = run(capsys, "pd", str(r))
    assert code == 1 and out == ""
    assert message in err and "Traceback" not in err
