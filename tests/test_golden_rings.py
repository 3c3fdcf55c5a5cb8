"""Byte-identical gate on the ring text and the reports of the shipped models.

Each ring digest is the sha256 of ``io.dump_ring`` of the built ring, the
text ``wonder build`` writes. A change to the engine, the nest decomposition
or the ring writer that alters any structure constant, basis label or
ordering changes the digest. Each report digest pins the stdout and the exit
code of one CLI command on one model, `wonder oracle` and `wonder compare`
on the oracle fixtures included. The synthetic digests pin the
algebras ``synthetic_gorenstein`` and ``synthetic_broken`` build, and the
oracle digests the rings that ``run_oracle``, ``blow_up`` and
``bundle_result`` build. The
round-trip test loads each model's diagram text and dumps it again, and the
writer test compares ``io.dump_diagram`` and ``io.dump_ring`` with
``json.dumps`` of their payloads on these models and a synthetic algebra.
``LARGE_RINGS`` and ``LARGE_DIAGRAMS`` pin the ring and diagram text of
models that only CI builds. The skipped-product test computes, on
each model, every product the fill skips as zero and finds it zero. The
read-path test checks each model's validation report against its rows and
pins their number. The scalar-kind tests walk the same models: every
stored scalar is an ``int`` or a non-integral ``Fraction``.  The generator tests check that
``GradedAlgebra.generators`` is a minimal generating set of every burrow
algebra of these models and of the synthetic algebras, and that it picks
the generators of the greedy reference, one rank per candidate, on those
algebras, on each built ring and on a small algebra where more than one
choice is minimal."""

import hashlib
import json
from fractions import Fraction

import pytest

from wonder import io
from wonder.algebra import GradedAlgebra
from wonder.blowup import blow_up, bundle_result
from wonder.cli import main
from wonder.engine import WonderRing, _merged, build_ring
from wonder.exact_linalg import sparse_rank
from wonder.fixtures import oracle_fixture
from wonder.models import _PowerAlg, fm_power, keel_model, synthetic_broken, synthetic_gorenstein
from wonder.oracle import run_oracle

from builders import (
    checked_report,
    filled_table,
    generators_reference,
    random_blowup_input,
    random_bundle_input,
)

GOLDEN = {
    "fm-p1-3": (
        lambda: fm_power("p1", 3),
        "c338391ec3123ea5eb853bc41e596d129b9be061a63660956702d91d8511a69f",
    ),
    "fm-p1-4": (
        lambda: fm_power("p1", 4),
        "45db1076681031a2c6be127c35b6ffc1ac2fb712d44dd4e45eb72cd70028910f",
    ),
    "fm-p1-5": (
        lambda: fm_power("p1", 5),
        "5e567deadf8d1df7b51bf733d3a50c3adc73380cc84bed3fc5cb48663204c3c7",
    ),
    "fm-p2-3": (
        lambda: fm_power("p2", 3),
        "79d246150ea9c8f62d93d56501b1b52f16d90789a9d58246931e317bfb73e60c",
    ),
    "fm-p2-4": (
        lambda: fm_power("p2", 4),
        "669a6df89ccdedb5f2e38677afa3372e60ecff117716c46c24bf37f43de9acbe",
    ),
    "fm-p2-4-min3": (
        lambda: fm_power("p2", 4, min_size=3),
        "bca4ae096ea1efd8ad3abee54645d53b3a0b74f0c6b98256d0eb70aca958e834",
    ),
    "fm-curve-3-g2": (
        lambda: fm_power("curve", 3, genus=2),
        "762c7633c7be5568ab0fd23fd6435736909ccb37d8acc6c188c548a9d5dbf0e0",
    ),
    "keel-2": (
        lambda: keel_model(2),
        "c23881848eb7dd3e55630fc264a4e83d8d98203620243e8490dfe70588463017",
    ),
    "keel-3": (
        lambda: keel_model(3),
        "4405102a31c8c3e0a1cedab2d8d7cc911786a9f47a8f4b7197f9760653d86df1",
    ),
    "keel-4": (
        lambda: keel_model(4),
        "7330c354b7bf3c61c5930335d360601c7e726544952c9cd760f39b2f4458e022",
    ),
}

# sha256 of ``io.dump_ring`` of models too large for the tests: CI checks
# each against the ring text ``wonder build`` writes in a fresh interpreter.
LARGE_RINGS = {
    "keel-5": "d70b8c996121a48c852f51c15487710250841bc522bae2ed2a2a7d25962490e0",
}

# sha256 of ``io.dump_diagram`` of models too large for the tests: CI checks
# each against the diagram text ``wonder model`` writes in a fresh interpreter.
LARGE_DIAGRAMS = {
    "keel-5": "64142857e44d3a6c32221cdc1a0f2d0f1eaa27cb7e33aab40c4a0d0cf3199d3a",
}


@pytest.fixture(scope="module")
def built():
    """Diagram and built ring of each GOLDEN model, made once."""
    made = {}

    def get(name):
        if name not in made:
            diagram = GOLDEN[name][0]()
            made[name] = diagram, build_ring(diagram, validate=False)
        return made[name]

    return get


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ring_text_digest(built, name):
    diagram, ring = built(name)
    text = io.dump_ring(ring.as_algebra(), diagram.socle_degree)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name][1]


# sha256 of ``io.dump_diagram`` of every GOLDEN model and of the models below,
# which have no ring digest: the smallest of each family, and fm-curve-4, whose
# burrow algebras order their bases by label.
EXTRA_DIAGRAMS = {
    "fm-curve-2": lambda: fm_power("curve", 2),
    "fm-curve-4": lambda: fm_power("curve", 4),
    "fm-p1-2": lambda: fm_power("p1", 2),
    "fm-p2-2": lambda: fm_power("p2", 2),
    "keel-1": lambda: keel_model(1),
}
GOLDEN_DIAGRAMS = {
    "fm-curve-2": "aca855ae48dc38fff36eb38c60ed854c58f2fbe7d0fa01cae03957c1c22e1697",
    "fm-curve-3-g2": "268f6411000c8e28b918b093714dc4303a69ab1aaa3f3d7dbbc3b99ba63c94c3",
    "fm-curve-4": "71c311cb2196b2e2f4b7fab4c1e4ef7df8a73f403391f0d114948add565ecdf5",
    "fm-p1-2": "cd083a0936cdfaadd9788838bed817e3222b5f0ab552da298240f6b8fde0325f",
    "fm-p1-3": "fd81253d8f3c4e3039065bf1d59bc7fe55e39a15cfd6a9b4c86623c0ee300c3b",
    "fm-p1-4": "09e7a09c1d3594249d0c41b5a609e45086594f142043140d86751b18245b5193",
    "fm-p1-5": "56d43bc4f986b66d7c31916f5042890554e3da24fde8d1646f415cd8090b887c",
    "fm-p2-2": "3833ab2ffbb9571a53109e1072f6dd556d71f1afcc11e88454d17520e1be3f25",
    "fm-p2-3": "a2203aa9ae1f16b46d3f8107d0f8cdfa10dc0128c302123cacfbe45eea4887ac",
    "fm-p2-4": "8e56536902edf608ffed82e92fdb4d248f711df3156412152df90c6af8853b1f",
    "fm-p2-4-min3": "7337bbea140f160a2d01a49e0c2112c3332367b2b1af37f15c122eb587396b45",
    "keel-1": "58584a2d6f12b08fd04ccb2d5e44d60dc5f874871e52b05dd245bd5893a1757b",
    "keel-2": "18ba4a96169293c56385a5fac2a88666ee36ded07d4d6b41f5cb5fdbd566b492",
    "keel-3": "5cd458b35dc3c3afd7af37f8c485f9227f86b24fabf61e349b5281d35a1016c6",
    "keel-4": "50502932ecfef1b320eef19df96fb8eb11d6678f1573944ba750afa2038e1cf7",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIAGRAMS))
def test_diagram_text_digest(built, name):
    diagram = built(name)[0] if name in GOLDEN else EXTRA_DIAGRAMS[name]()
    text = io.dump_diagram(diagram)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_DIAGRAMS[name]


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_DIAGRAMS))
def test_writer_matches_json_dumps(built, name):
    """``io.dump_diagram`` and ``io.dump_ring`` give the text of
    ``json.dumps(sort_keys=True, indent=1)`` on each model's diagram and
    ring payloads; keel-1's ring has an empty ``mult`` section."""
    if name in GOLDEN:
        diagram, ring = built(name)
    else:
        diagram = EXTRA_DIAGRAMS[name]()
        ring = build_ring(diagram, validate=False)
    assert io.dump_diagram(diagram) == _json_text(io.diagram_payload(diagram))
    alg, d = ring.as_algebra(), diagram.socle_degree
    assert io.dump_ring(alg, d) == _json_text(io.ring_payload(alg, d))
    assert (name == "keel-1") == (not io.ring_payload(alg, d)["mult"])


def test_ring_writer_matches_json_dumps_on_fractions():
    """``io.dump_ring`` on a synthetic Gorenstein algebra, whose structure
    constants are mostly non-integral, some of them negative."""
    alg = synthetic_gorenstein((1, 5, 15, 15, 5, 1), 0)
    values = list(_structure_constants(alg))
    assert sum(type(q) is Fraction for q in values) > 1000
    assert any(q < 0 and type(q) is Fraction for q in values)
    assert io.dump_ring(alg, 5) == _json_text(io.ring_payload(alg, 5))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_diagram_load_dump_load_is_the_identity(built, name):
    """Dumping a loaded diagram gives back the text it was loaded from, and
    the loaded diagram shares one structure per ``structures`` entry and
    one datum per ``maps`` entry, as many as the model shares."""
    diagram = built(name)[0]
    text = io.dump_diagram(diagram)
    loaded = io.load_diagram(text)
    assert io.dump_diagram(loaded) == text
    payload = json.loads(text)
    for d in (diagram, loaded):
        assert len({b.algebra.structure for b in d.burrows.values()}) == len(payload["structures"])
        assert len(set(d.edge_data().values())) == len(payload["maps"])


def _exact_kind(q) -> bool:
    """A scalar is an int, or a Fraction that is not integral; never a float
    or a bool."""
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


def _structure_constants(alg):
    for i in range(alg.total_dim):
        for j in range(i, alg.total_dim):
            yield from alg.product_basis(i, j).values()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_skipped_products_are_zero(built, name):
    """Every pair up to the socle that the product fill skips is zero and
    has no table entry: a pair in a block whose merged pattern is not a
    nest, or in a sub-block whose two burrow degrees sum to an ambient
    degree where ``_vanishes_in`` clears the block's pattern.  ``_product``
    computes each pair of the latter kind, on a copy of the memo.  No row
    the fill stores is empty."""
    diagram, _ = built(name)
    ring = WonderRing(diagram)
    table = filled_table(ring)
    assert all(table.values())
    d = diagram.socle_degree
    memo = dict(ring._memo)
    n = len(ring.basis)
    skipped = 0
    for i in range(n):
        deg_i, si = ring.basis[i][:2]
        for j in range(i, n):
            deg_j, sj = ring.basis[j][:2]
            if deg_i + deg_j > d:
                break
            pattern = _merged(ring.summands[si], ring.summands[sj])
            if not ring._vanishes(pattern):
                k = deg_i + deg_j - ring.summands[si].shift - ring.summands[sj].shift
                if not ring._vanishes_in(pattern, k):
                    continue
                assert not ring._product(i, j, pattern, memo=memo), (i, j)
            assert (i, j) not in table, (i, j)
            skipped += 1
    assert skipped


# rows of each GOLDEN model's validation report; the benchmark's
# diagram.checks counter is this number on keel-3 and fm-p2-4-min3
REPORT_ROWS = {
    "fm-curve-3-g2": 71,
    "fm-p1-3": 71,
    "fm-p1-4": 374,
    "fm-p1-5": 2327,
    "fm-p2-3": 71,
    "fm-p2-4": 374,
    "fm-p2-4-min3": 89,
    "keel-2": 323,
    "keel-3": 2912,
    "keel-4": 27887,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_validation_report_read_paths(built, name):
    """The report's verdicts, failing rows and message agree with its rows
    (``checked_report``), and it has as many rows as before they were made
    on read."""
    report = checked_report(built(name)[0])
    assert report.ok and len(report.entries) == REPORT_ROWS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scalar_kinds(built, name):
    diagram, ring = built(name)
    alg = ring.as_algebra()
    reloaded, _ = io.load_ring(io.dump_ring(alg, diagram.socle_degree))
    scalars = [*_structure_constants(alg), *_structure_constants(reloaded)]
    for node in diagram.burrows.values():
        scalars.extend(_structure_constants(node.algebra))
    for edge in diagram.edges.values():
        for m in (edge.pullback, edge.pushforward):
            scalars.extend(v for col in m.columns for v in col.values())
        for c in edge.chern.coeffs:
            scalars.extend(c.coeffs.values())
    assert all(_exact_kind(q) for q in scalars)


# sha256 of "<exit code>\n<stdout>"; `pd` reads the ring `wonder build` writes,
# the other commands read the diagram; a command may carry its options, as
# "pd --json". `blocks` on fm-p2-4-min3 exits 3 on the known block-structure
# defect (ROADMAP item 1); its stderr is pinned below.
REPORT_MODELS = {
    "fm-p1-3": ["fm-p1", "--n", "3"],
    "fm-p1-4": ["fm-p1", "--n", "4"],
    "fm-p2-3": ["fm-p2", "--n", "3"],
    "fm-p2-4-min3": ["fm-p2", "--n", "4", "--min-size", "3"],
    "fm-curve-3-g2": ["fm-curve", "--n", "3", "--genus", "2"],
    "keel-2": ["keel", "--n", "2"],
    "keel-3": ["keel", "--n", "3"],
    "keel-4": ["keel", "--n", "4"],
}
GOLDEN_REPORTS = {
    ("fm-p1-3", "validate"): "0d2ba16d3a935d6ad2f93c9edcf6e262e7d438584b131e6fdc95c5499955cd57",
    ("fm-p1-3", "decompose"): "c5d19360856eb0944e7134742dd8e56c94bda547e73259114cfb995232c7be3e",
    ("fm-p1-3", "presentation"): "796605ec3dbe6dbdc8ff299a50ef1f048a589a8b02891ac06ad1758ec39efa9b",
    ("fm-p1-3", "discrepancy"): "36ca1cf94ff16f211e800ab1e83af6fee9ecf641a3d32c7b98fad1cb622282f3",
    ("fm-p1-3", "blocks"): "d8c536963046204de4ebda09bec08fba73698530bd1ee303f21b7bfd7338ee4e",
    ("fm-p1-3", "pd"): "1f34a67ff195393818f11216aaae100b8429a7067d1a677c85a2e5cf65183cbe",
    ("fm-p1-4", "validate"): "a14b77894ddbc68b02d520d69b415d1d956513b6d1cf676d2fc5fedf4efd7fdc",
    ("fm-p1-4", "decompose"): "c6615ab1e8736f232b5e0c15d3de1f034f17cb9a72a04a733ea840be297ee9e1",
    ("fm-p1-4", "presentation"): "68281075c1e5596da7ed5d3b2530f27aceeefcd1178f31b7b0d9cdc130a833d8",
    ("fm-p1-4", "discrepancy"): "92be448f3d00b7d517010b50c4a92530e2824e743dc746859048c42451edbf20",
    ("fm-p1-4", "blocks"): "576efb5bc61f734806b0c7375059c42eb46f3c57214e1ed076b150c67e88e1a6",
    ("fm-p1-4", "pd"): "d9812d415f76b508f2c3250caecccfecdacc01e1b8a851b7d101c8be367dbaad",
    ("fm-p2-3", "validate"): "0d2ba16d3a935d6ad2f93c9edcf6e262e7d438584b131e6fdc95c5499955cd57",
    ("fm-p2-3", "decompose"): "03a138c84a39bc2d3235a9be78698f0876eddfc0ad0e98b24fa97b2c7b84c5fe",
    ("fm-p2-3", "presentation"): "a3f5e0635c01fd03b648e6b4e03997dfea36a2588b458c2f219981c469f01284",
    ("fm-p2-3", "discrepancy"): "154336608ee20566aa4e8879cc57bbe281be59b3caa4c5de19db4cb26cad0364",
    ("fm-p2-3", "blocks"): "0ea7421da07de0b91c6e65cf7da7bbf1c62087dd1ab592a96aa915c9594f2de9",
    ("fm-p2-3", "pd"): "d346ff8722f43079b6e216ff8d33363df065a15515c7c3779fad1a31279faaa9",
    ("fm-p2-4-min3", "validate"): "f7dc98cb851d3a602473542d8be2b4576223422cd0e438d2bdb794c028fcd8ce",
    ("fm-p2-4-min3", "decompose"): "c372bf0d66a3a1d185ac2484a18fe210eed8c88d667df373fd158454bbe4976f",
    ("fm-p2-4-min3", "presentation"): "5996c2386bb0b1ee20bff240c21a479bf75c240826dce1481f0e97845cf78c85",
    ("fm-p2-4-min3", "discrepancy"): "e92bac0f7765aa712c73ab9488411063fce0279fe65847c247029b5f7a8e2f1a",
    ("fm-p2-4-min3", "blocks"): "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    ("fm-p2-4-min3", "pd"): "1e846ae58df49af1463529658f5c1eeac2ee2f4a3d9df01fb7eac992cb360b45",
    ("fm-curve-3-g2", "validate"): "0d2ba16d3a935d6ad2f93c9edcf6e262e7d438584b131e6fdc95c5499955cd57",
    ("fm-curve-3-g2", "decompose"): "a0f8f5fa52b26dded3a212a70c674030004a72b00522efb7e029c116a3bbdcc9",
    ("fm-curve-3-g2", "presentation"): "2f90bd36e79dc7c2b5f357202a4624efcb712a321042ff24ed6d1fc760b4193f",
    ("fm-curve-3-g2", "discrepancy"): "36ca1cf94ff16f211e800ab1e83af6fee9ecf641a3d32c7b98fad1cb622282f3",
    ("fm-curve-3-g2", "blocks"): "d8c536963046204de4ebda09bec08fba73698530bd1ee303f21b7bfd7338ee4e",
    ("fm-curve-3-g2", "pd"): "1f34a67ff195393818f11216aaae100b8429a7067d1a677c85a2e5cf65183cbe",
    ("keel-2", "validate"): "42b7a99a504208c7793cb3bb5ee4d5b6f6f7663eabbb97ce888aa3cab8026074",
    ("keel-2", "decompose"): "f6a7fedbe272801e442b7b3a72aee51c647434d0cc92aa993e205f98a9aec946",
    ("keel-2", "presentation"): "93349a75642811ef1a5ff7c8cb40678417570eba561f02a8f1738668f82a8a85",
    ("keel-2", "discrepancy"): "abafe9412132ab83d4ef9b0c72358e0abc2371e9d73c8bd2ab0a3118a05c1e44",
    ("keel-2", "blocks"): "b1f7bdfa181d6e88d61ba9bd3e137a11c24147187e0c5d108a0d2299929b59b0",
    ("keel-2", "pd"): "f9b9cca707581b03a646fc23f4549c21b0594aa15c8968bdbdb205247164ade4",
    ("keel-3", "validate"): "8f54cee35f5c36a43ecb8a8e9cf21ea1a61eb56f74975fd19ae5f9b4d04a2fce",
    ("keel-3", "decompose"): "964c4bfdb5ceb7e7bd9aaa03ecddfeba58433b3eeb91a029e888b15618eeafc1",
    ("keel-3", "presentation"): "3b0dc03e9ab6336d4d11d16d62d00d7c64dd89d119c027e8e4c6bd1a6ef4fcfc",
    ("keel-3", "discrepancy"): "36ca1cf94ff16f211e800ab1e83af6fee9ecf641a3d32c7b98fad1cb622282f3",
    ("keel-3", "blocks"): "731d666dc2a504eeb3494017e029082bb198022691d95eb4951a3de44eb4a9a8",
    ("keel-3", "pd"): "1f34a67ff195393818f11216aaae100b8429a7067d1a677c85a2e5cf65183cbe",
    ("keel-4", "validate"): "6fb3906955307fc8379c44d8edf4bb1dbb1184ef23572e40e8699ff0c38f96d5",
    ("keel-4", "decompose"): "243b28ca4b1ae711cd63623a978ed518b04828f26e6d0b6c235ad72f46ed7a08",
    ("keel-4", "presentation"): "85cbd490b67bb8ae117d7bfecc4e833b4447ffd4d31b811b2dafbc6a2eefce0f",
    ("keel-4", "discrepancy"): "92be448f3d00b7d517010b50c4a92530e2824e743dc746859048c42451edbf20",
    ("keel-4", "blocks"): "d1416640a2a7cbfb9212e41e326acf15e211e4386b62e803b61b6fd965a36391",
    ("keel-4", "pd"): "d9812d415f76b508f2c3250caecccfecdacc01e1b8a851b7d101c8be367dbaad",
    ("keel-3", "pd --json"): "1ff1b55f67db53af3c5987c172c055ee7fe66fb47a8e3d0d91dcc41c966fc7da",
    ("keel-3", "discrepancy --json"): "28bc3fa270d44d167b721b0644457d370f12b6a524fb5dd77db65288b35decb2",
    ("keel-3", "blocks --json"): "7d59216a27c9129f968752361ad3968c74c9c8127034060a387ba7185f7a5815",
    ("fm-p2-4-min3", "pd --json"): "7c9ea5965b9bfaff1cd2b52d5dce5e1dea91c4c526e85f3cbc8b73631fd421db",
    ("fm-p2-4-min3", "discrepancy --json"): "def508173fab58278fc2c3993a503ed0638c5cdccadbad2d16409a2396b4ebd4",
    ("fm-p2-4-min3", "blocks --json"): "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
}


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """Diagram and ring file of each report model, written once."""
    made = {}

    def files(model):
        if model not in made:
            diagram = tmp_path_factory.mktemp(model) / "d.json"
            ring = diagram.with_name("r.json")
            assert main(["model", *REPORT_MODELS[model], "--out", str(diagram)]) == 0
            assert main(["build", str(diagram), "--out", str(ring)]) == 0
            made[model] = diagram, ring
        return made[model]

    return files


@pytest.mark.parametrize("command,model", sorted((c, m) for m, c in GOLDEN_REPORTS))
def test_report_digest(model_files, capsys, model, command):
    diagram, ring = model_files(model)
    capsys.readouterr()
    args = command.split()
    code = main([*args, str(ring if args[0] == "pd" else diagram)])
    out = capsys.readouterr().out
    digest = hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()
    assert digest == GOLDEN_REPORTS[(model, command)]


# sha256 of "<exit code>\n<stdout>" of `wonder oracle` on the oracle fixture
# `wonder model <family>-oracle` writes for a report model, and of `wonder
# compare` of that fixture with the model's diagram.
GOLDEN_ORACLE_REPORTS = {
    ("fm-p1-3", "oracle"): "8ce23d35d708c943da0a830636a30b0d99667deb57b1fce337ce16b3ddc281ed",
    ("keel-2", "oracle"): "39f0362249bfba76c34e8d5bd271ac63d725495e6db052781f761413a8111423",
    ("keel-3", "oracle"): "c2aa596d3d8e52f7f3fa860fa7334556a8df726b6522e6569cdf5d079fee127d",
    ("keel-3", "compare"): "85a7179b2d31ab9e32f37e6820f8c81691a3b51ed52a894353fcbe1bc81f17bc",
}


@pytest.mark.parametrize("command,model", sorted((c, m) for m, c in GOLDEN_ORACLE_REPORTS))
def test_oracle_report_digest(model_files, capsys, model, command):
    diagram, _ = model_files(model)
    family, *rest = REPORT_MODELS[model]
    fixture = diagram.with_name("fx.json")
    assert main(["model", f"{family}-oracle", *rest, "--out", str(fixture)]) == 0
    capsys.readouterr()
    if command == "oracle":
        code = main(["oracle", str(fixture)])
    else:
        code = main(["compare", "--diagram", str(diagram), "--oracle", str(fixture)])
    out = capsys.readouterr().out
    digest = hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()
    assert digest == GOLDEN_ORACLE_REPORTS[(model, command)]


def test_blocks_violation_message(model_files, capsys):
    """The first four violations, in the order the Gram entries are scanned."""
    diagram, _ = model_files("fm-p2-4-min3")
    capsys.readouterr()
    assert main(["blocks", str(diagram)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: pairing block structure violated: "
        "distinct nests pair at degree 2: ('D123',) vs ('D123', 'D1234'); "
        "distinct nests pair at degree 2: ('D124',) vs ('D1234', 'D124'); "
        "distinct nests pair at degree 2: ('D134',) vs ('D1234', 'D134'); "
        "distinct nests pair at degree 2: ('D234',) vs ('D1234', 'D234')\n"
    )


# sha256 of ``io.dump_ring`` of the synthetic algebras: (dims, break degree or
# None for a Gorenstein algebra, seed) -> digest.
GOLDEN_SYNTH = {
    ((1, 6, 21, 6, 1), None, 0): "6c3488b18a98176b71b18ba131b7828c5c380eaab1f100961993ae7039e4bbbc",
    ((1, 6, 21, 6, 1), None, 1): "deb1301bd03f4e9d6e4218041fcc553b15e164222a3623893e6a38d2addb4ca7",
    ((1, 6, 21, 6, 1), None, 2): "2e7423ca0a1427bebaff09f7111a2e974596a2e665a7b5ddeb5d0f03c42b0bb7",
    ((1, 5, 15, 15, 5, 1), None, 0): "a9f87743da7363ef905722ca271a1eedb345ebd4f06c83b99d45d575b1393d8b",
    ((1, 5, 15, 15, 5, 1), None, 1): "df6302126efc2a4ce047ce0a2a64277495f7f10e11c8838a1155d8113f2e0173",
    ((1, 5, 15, 15, 5, 1), None, 2): "0f6dc36e8beae96a5ed530c2abceb6e89f53ec680bb18d65d263587d8771345a",
    ((1, 6, 22, 6, 1), 2, 0): "b2848245bab082f9829ba1575425764cb39acdb380f94b764b846823b8241e03",
    ((1, 6, 22, 6, 1), 2, 1): "6583efe0ced868c0d12a64a3421a3d7db0e1ff8b6dfa7d18df7d22ebeaf814f0",
    ((1, 6, 22, 6, 1), 2, 2): "fc0f37cbd24ec788971aa359173e6c4d694aaad655be6ca32385f42f724a77c7",
    ((1, 5, 16, 16, 5, 1), 2, 0): "e944d4d0dac299ae59f14f2aae725b8e36083098b7a7f46a748f133d18869d07",
    ((1, 5, 16, 16, 5, 1), 2, 1): "80ad095dd96e9677642cfd7080278d8016894a70a5552a45279f702db3b5dbd2",
    ((1, 5, 16, 16, 5, 1), 2, 2): "31d0565c9536b6773c9af9e567f9ec1b89ce2dae87b1a4dcf14f862cbb975c2b",
}


@pytest.fixture(scope="module")
def synthetic():
    """The algebra of each GOLDEN_SYNTH key, made once."""
    made = {}

    def get(dims, k, seed):
        if (dims, k, seed) not in made:
            if k is None:
                made[(dims, k, seed)] = synthetic_gorenstein(dims, seed)
            else:
                made[(dims, k, seed)] = synthetic_broken(dims, k, seed)
        return made[(dims, k, seed)]

    return get


@pytest.mark.parametrize("dims,k,seed", sorted(GOLDEN_SYNTH, key=repr))
def test_synthetic_ring_digest(synthetic, dims, k, seed):
    alg = synthetic(dims, k, seed)
    text = io.dump_ring(alg, len(dims) - 1)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SYNTH[(dims, k, seed)]


def test_synthetic_scalar_kinds(synthetic):
    scalars = []
    for key in GOLDEN_SYNTH:
        scalars.extend(_structure_constants(synthetic(*key)))
    assert all(_exact_kind(q) for q in scalars)
    assert any(type(q) is Fraction for q in scalars)


def _monomials_span(alg, gens) -> bool:
    """Whether the monomials in gens span every degree of alg.  By induction
    on the degree, once the lower degrees are spanned, the degree-k
    monomials span the products g * b of a generator g with the basis b of
    degree k - deg g (b = 1 for a generator of degree k)."""
    for k in range(1, alg.top_degree + 1):
        rows = []
        for g in gens:
            for b in alg.global_indices(k - alg.degree_of(g)):
                prod = alg.basis_element(g) * alg.basis_element(b)
                rows.append({h: prod.coefficient(h) for h in alg.global_indices(k)})
        if sparse_rank(rows) != alg.dim(k):
            return False
    return True


def _assert_minimal_generators(alg):
    gens = alg.generators()
    assert gens == generators_reference(alg)
    assert list(gens) == sorted(set(gens))
    assert all(0 < g < alg.total_dim for g in gens)
    assert _monomials_span(alg, gens)
    for g in gens:
        assert not _monomials_span(alg, [h for h in gens if h != g]), alg.label_of(g)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_burrow_generators_are_minimal(built, name):
    diagram, ring = built(name)
    for burrow in diagram.burrows.values():
        _assert_minimal_generators(burrow.algebra)
    alg = ring.as_algebra()
    assert alg.generators() == generators_reference(alg)


@pytest.mark.parametrize("dims,k,seed", sorted(GOLDEN_SYNTH, key=repr))
def test_synthetic_generators_are_minimal(synthetic, dims, k, seed):
    _assert_minimal_generators(synthetic(dims, k, seed))


def test_generators_take_the_first_class_outside_the_span():
    """x*x = u + v: either of u, v completes degree 2, and the choice is the
    first one, where on the models above every choice is forced."""
    alg = GradedAlgebra([1, 1, 2], [["1"], ["x"], ["u", "v"]], [(1, 1, 2, 1), (1, 1, 3, 1)])
    _assert_minimal_generators(alg)
    assert alg.generators() == (1, 2)


def _oracle_ring(name):
    """(algebra, socle degree) of one GOLDEN_ORACLE case: a shipped oracle
    fixture replayed, one random blow-up or bundle input, or the bundle
    P(O + O(1)) over a line, whose nonzero c_1 goes through the reduction."""
    kind, arg = name.split(":")
    if kind == "fixture":
        model, n = arg.rsplit("-", 1)
        run = run_oracle(oracle_fixture(model, int(n)))
        return run.algebra, run.socle_degree
    if kind == "blow_up":
        inp = random_blowup_input(int(arg))
        res = blow_up(inp["y"], inp["z"], inp["pullback"], inp["pushforward"], inp["chern"])
        return res.algebra, inp["socle"]
    if kind == "bundle":
        inp = random_bundle_input(int(arg))
        return bundle_result(inp["z"], inp["chern"]).algebra, inp["socle"] + inp["rank"] - 1
    line = _PowerAlg(["x"], 1).alg
    run = run_oracle(
        {
            "kind": "oracle",
            "base": io.ring_payload(line, 1),
            "steps": [{"op": "projective_bundle", "name": "xi", "chern": [[["hx", "1"]], []]}],
        }
    )
    return run.algebra, run.socle_degree


# sha256 of ``io.dump_ring`` of the rings the blow-up oracle builds.
GOLDEN_ORACLE = {
    "fixture:fm-p1-3": "01f08d98513b090a02d0375ed104167beead77df076d736e9ddcb0a9416ab6c9",
    "fixture:keel-2": "c443472d6c5db23f924998115b8bcfc808e0bc2e1ee874a7f94c020dd102bd33",
    "fixture:keel-3": "360ed54ec7078fb7fffd33035788362788c4658edabd1fbc8e86034834209439",
    "blow_up:0": "1809f96cf2f80860a4ba12dd393160d44f1368738072719bef2ff907a462cb55",
    "blow_up:1": "6431e1b197ee87ef9e4ea3f1cfa8388eafeee256b9cee16fbca272cc18af83d7",
    "blow_up:2": "7b0d6551587fc4c30687d0ba1abcafeb0cfc54a1509f63cc914ce1b055ab36bd",
    "blow_up:3": "2c4329aee5ce6989bdb3a175835590169330f9c4e6e35012322f313c5478f220",
    "blow_up:4": "50a7e6f106858d80b3b15d35cc4b62c63ac9e0ac293be4d77259c934688e7cee",
    "blow_up:5": "62870fee2eed275981c80d376e6048be140eaa04d69f3621064aeafc185ccce2",
    "bundle:0": "b721cd012ae212433257e140cca8feffa38af70e3041dc1bd344ce970a88e284",
    "bundle:1": "a998a12cd2439202968792a6902c9b49b8ee292d9e85d624d08aff8d01198aab",
    "bundle:2": "7d4e3d7a758ab5a1bf981d445f08eb9c0609e30f57c079b08bcdad0f41337a23",
    "bundle:3": "0ea39ca61ef16b30151179fdc7af17064dcdb3aade2133e32bb612cde2350726",
    "bundle:4": "542e3ff59e606ad2ff82a8be5c21e3c27a553e7462672dcfa84ded7d59d5b83f",
    "bundle:5": "499183a929b5c87829381692b0771e519144975d8d134cf1b5597e082f6b869a",
    "line-bundle:O+O(1)": "3817ded1281a04fea81fa391448755a07e03ce4e2af50f4cfb3b5c5bb2152840",
}


@pytest.mark.parametrize("name", list(GOLDEN_ORACLE))
def test_oracle_ring_digest(name):
    alg, socle = _oracle_ring(name)
    text = io.dump_ring(alg, socle)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_ORACLE[name]
