"""Structured-text (JSON-syntax) file formats.

Three kinds of files share one dialect, distinguished by a ``kind`` field:

* ``diagram``  - elements; two shared tables, ``structures`` (each
  distinct ``{"degrees", "mult"}`` of the burrow algebras) and ``maps``
  (each distinct ``{"pullback", "pushforward", "chern"}``: map entries
  ``[degree, row, column, value]`` and the Chern classes c_1 .. c_c as
  ``[basis index, value]`` pairs of the big burrow); burrows (id, codim,
  defining_set, basis_labels and the index of their ``structure``); edges
  ``[small, big, maps index]`` (the edge set is the containment order, from
  which meets are derived; the pushforward shift is the codim difference);
  intersections (singles: the burrow of each element; a ``meets`` field,
  which older files carry, is rejected), nests, socle_degree, and
  relations: ``[element id, name, ambient class]`` entries in the model's
  order, classes by basis label, each saying that the element's
  exceptional class annihilates the class; and,
  written only when the diagram declares one, symmetry: a list of
  generators, each ``{"elements": {id: image}, "burrows": {id: image},
  "bases": {burrow id: [image index, ...]}}`` with fixed ids and kept
  basis orders left out.  A table index that is not an integer in range
  (a bool, a negative number, one past the end) is rejected naming its
  burrow or edge, and so is a ``maps`` entry that does not fit the
  algebras of an edge that reads it.  Files without the two tables, which
  kept an algebra on every burrow and maps on every edge, are an older
  format and are rejected.  The loader rejects (``InputError``) a generator
  that is not of that shape, names an unknown id, does not map ids
  bijectively, or lists a basis map that is not a permutation of the
  burrow's indices.  Whether it is an automorphism is for
  ``BurrowDiagram.symmetry`` to say: it compares every datum exactly,
  except the lower Chern coefficients, which it compares after pullback to
  the edge's small burrow, and a failing generator leaves the diagram with
  the trivial group and a failing ``symmetry`` row in ``validate``;
* ``ring``     - a graded algebra with a socle degree;
* ``oracle``   - a base ring plus a scripted sequence of construction steps.

Rational entries are written as ``"p/q"`` strings (``"p"`` when integral).
Dumps are canonical: each table lists each distinct entry once, in order of
first use, and load -> dump -> load is the identity.  The dump writes one
``maps`` entry per edge datum of the diagram (``BurrowDiagram.edges``),
equal data from different objects meeting in one entry.  The loader builds
one ``Structure`` per ``structures`` entry and one edge datum per ``maps``
entry and pair of structures that reads it, checked once; every burrow
and edge shares them.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from wonder.algebra import Element, GradedAlgebra, GradedMap, Structure
from wonder.diagram import (
    NESTED_OR_DISJOINT,
    BuildingElement,
    BurrowDiagram,
    BurrowEdge,
    BurrowNode,
    ChernPolynomial,
    Permutation,
)
from wonder.errors import InputError
from wonder.exact_linalg import format_rat, parse_rat


# the compact C encoder with a raw newline between items: strings escape
# their control characters, so a raw newline only ever separates items
_LINES = json.JSONEncoder(separators=("\n", ": "))
_SCALARS = {str, int, float, bool, type(None)}


def _dump_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=1)`` and a newline,
    without the pure-Python encoder that ``indent`` selects: a list of
    scalars, or of nonempty lists of scalars, is one ``_LINES`` call
    indented by replacing its newlines, and a ``_Text`` is written as it
    is."""
    out = []
    _write(out, payload, "\n")
    return "".join(out) + "\n"


def _write(out: list, value, nl: str):
    """Append the text of ``value``; ``nl`` starts its line."""
    inner, cell = nl + " ", nl + "  "
    if not value or not isinstance(value, (dict, list, tuple)):
        out.append(value if type(value) is _Text else _LINES.encode(value))
    elif isinstance(value, dict):
        for i, (k, v) in enumerate(sorted(value.items())):
            key = _LINES.encode(k if isinstance(k, str) else json.dumps(k))
            out.append(("," if i else "{") + inner + key + ": ")
            _write(out, v, inner)
        out.append(nl + "}")
    elif set(map(type, value)) <= _SCALARS:
        out.append("[" + inner + _LINES.encode(value)[1:-1].replace("\n", "," + inner) + nl + "]")
    elif set(map(type, value)) <= {list, tuple} and all(value) and (
        set(map(type, chain.from_iterable(value))) <= _SCALARS
    ):
        # rows "[a\nb]" joined by "\n": a raw "]\n[" can only join two rows,
        # and no raw NUL occurs, so it can stand for the joins
        text = _LINES.encode(value)[2:-2].replace("]\n[", "\0").replace("\n", "," + cell)
        rows = text.replace("\0", inner + "]," + inner + "[" + cell)
        out.append("[" + inner + "[" + cell + rows + inner + "]" + nl + "]")
    else:
        for i, v in enumerate(value):
            out.append(("," if i else "[") + inner)
            _write(out, v, inner)
        out.append(nl + "]")


class _Text(str):
    """Text that ``_write`` appends as it is: a section written directly."""


def _seq(items, nl: str, brackets: str = "[]") -> str:
    """The text of a list (or, with ``brackets`` "{}", an object) of the
    nonempty item texts ``items``; ``nl`` starts its line."""
    inner = nl + " "
    text = ("," + inner).join(items)
    return brackets[0] + inner + text + nl + brackets[1] if text else brackets


def _load_json(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"cannot parse file: {e}") from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise InputError("file lacks a 'kind' field")
    return payload


def _int_field(value, what: str) -> int:
    """A JSON integer; floats, bools and strings raise InputError naming the field."""
    if type(value) is not int:
        raise InputError(f"{what} {value!r} is not an integer")
    return value


def _str_field(value, what: str) -> str:
    """A JSON string; anything else raises InputError naming the field."""
    if type(value) is not str:
        raise InputError(f"{what} {value!r} is not a string")
    return value


def _str_list(value, what: str) -> list:
    """A JSON list of strings; anything else raises InputError naming the field."""
    if not (isinstance(value, list) and all(type(v) is str for v in value)):
        raise InputError(f"{what} {value!r} is not a list of strings")
    return value


def _objects(value, what: str) -> list:
    """A JSON list of objects; anything else raises InputError naming the field."""
    if not (isinstance(value, list) and all(isinstance(v, dict) for v in value)):
        raise InputError(f"{what} is not a list of objects")
    return value


def _element_payload(elem: Element) -> list:
    return [
        [elem.alg.label_of(g), format_rat(q)]
        for g, q in sorted(elem.coeffs.items())
    ]


def _element_from(alg: GradedAlgebra, payload) -> Element:
    if not isinstance(payload, list) or not all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) for p in payload
    ):
        raise InputError(f"malformed class {payload!r}")
    coeffs = {lbl: parse_rat(q, "class coefficient") for lbl, q in payload}
    if len(coeffs) != len(payload):
        raise InputError(f"repeated basis label in {payload!r}")
    return alg.from_labels(coeffs)


def _map_payload(m: GradedMap) -> list:
    """``[degree, row, column, value]`` entries, sorted; row and column are
    the target and source positions within their degrees."""
    entries = []
    for k in range(m.source.top_degree + 1):
        lo = m.target.global_indices(k + m.shift).start
        for j, g in enumerate(m.source.global_indices(k)):
            for h, v in m.columns[g].items():
                entries.append((k, h - lo, j, v))
    return [[k, i, j, format_rat(v)] for k, i, j, v in sorted(entries)]


def _map_from(source, target, shift, entries, where) -> GradedMap:
    if not isinstance(entries, list):
        raise InputError(f"{where} is not a list of map entries")
    columns = [{} for _ in range(source.total_dim)]
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise InputError(f"{where} entry {entry!r} is not [degree, row, column, value]")
        k, i, j, v = entry
        if not (
            type(k) is type(i) is type(j) is int
            and 0 <= k <= source.top_degree
            and 0 <= i < target.dim(k + shift)
            and 0 <= j < source.dim(k)
        ):
            raise InputError(f"{where} entry ({k},{i},{j}) out of range")
        g = source.offset(k) + j
        columns[g][target.offset(k + shift) + i] = parse_rat(v, "map entry")
    return GradedMap(source, target, shift, columns)


# -- ring files -------------------------------------------------------------


def ring_payload(alg: GradedAlgebra, socle_degree: int) -> dict:
    payload = alg.to_payload()
    payload["kind"] = "ring"
    payload["socle_degree"] = socle_degree
    return payload


def ring_from_payload(payload: dict):
    if payload.get("kind") != "ring":
        raise InputError(f"expected a ring file, got kind={payload.get('kind')!r}")
    alg = GradedAlgebra.from_payload(payload)
    if "socle_degree" not in payload:
        raise InputError("ring file missing field 'socle_degree'")
    return alg, _int_field(payload["socle_degree"], "socle_degree")


def dump_ring(alg: GradedAlgebra, socle_degree: int) -> str:
    """``json.dumps(ring_payload(alg, socle_degree), sort_keys=True,
    indent=1)`` and a newline, with the ``mult`` section written straight
    from the structure's rows: one group per structure constant, in the
    order of ``Structure.to_payload`` (``str(q)`` is ``format_rat(q)``)."""
    out = ['{\n "basis_labels": ']
    _write(out, [list(ls) for ls in alg.labels], "\n ")
    out.append(',\n "degrees": ')
    _write(out, list(alg.dims), "\n ")
    out.append(',\n "kind": "ring",\n "mult": ')
    rows, groups = alg.structure.rows, []
    for a in range(1, alg.total_dim):
        row = rows[a]
        for b in sorted(row):
            if b >= a:
                head, prod = f"[\n   {a},\n   {b},\n   ", row[b]
                for k in sorted(prod) if len(prod) > 1 else prod:
                    groups.append(f'{head}{k},\n   "{prod[k]}"\n  ]')
    out.append("[\n  " + ",\n  ".join(groups) + "\n ]" if groups else "[]")
    out.append(',\n "socle_degree": ' + _LINES.encode(socle_degree) + "\n}\n")
    return "".join(out)


def load_ring(text: str):
    return ring_from_payload(_load_json(text))


# -- diagram files ------------------------------------------------------------


def _interned(table: list, index: dict, entry) -> int:
    """Position of the entry in the table, appended when no equal entry is
    there yet."""
    key = repr(entry)
    if key not in index:
        index[key] = len(table)
        table.append(entry)
    return index[key]


def _class_payload(elem: Element) -> list:
    """A class as ``[basis index, value]`` pairs, sorted by index."""
    return [[g, format_rat(q)] for g, q in sorted(elem.coeffs.items())]


def _tables(diagram: BurrowDiagram):
    """The payload but its elements, burrows, relations and symmetry, and
    the index in ``structures`` of each burrow algebra's structure."""
    # each distinct entry once, in order of first use; objects shared in
    # memory are written once, and equal ones from different objects meet
    # in the table
    structures, structure_index, structure_of = [], {}, {}
    for _, b in sorted(diagram.burrows.items()):
        s = b.algebra.structure
        if s not in structure_of:
            structure_of[s] = _interned(structures, structure_index, s.to_payload())
    maps, map_index, map_of = [], {}, {}
    edges = []
    for (small, big), datum in sorted(diagram.edges.items()):
        if datum not in map_of:
            entry = {
                "pullback": _map_payload(datum.pullback),
                "pushforward": _map_payload(datum.pushforward),
                "chern": [_class_payload(c) for c in datum.chern.coeffs],
            }
            map_of[datum] = _interned(maps, map_index, entry)
        edges.append([small, big, map_of[datum]])
    if diagram.nest_rule == NESTED_OR_DISJOINT:
        nests = NESTED_OR_DISJOINT
    else:
        nests = {"explicit": sorted(sorted(s) for s in diagram.explicit_nests)}
    payload = {
        "kind": "diagram",
        "socle_degree": diagram.socle_degree,
        "structures": structures,
        "maps": maps,
        "edges": edges,
        "intersections": {"singles": dict(sorted(diagram.singles.items()))},
        "nests": nests,
    }
    return payload, structure_of


def diagram_payload(diagram: BurrowDiagram) -> dict:
    payload, structure_of = _tables(diagram)
    elements = []
    for e in sorted(diagram.elements.values(), key=lambda e: e.id):
        entry = {"id": e.id, "codim": e.codim}
        if e.index_set is not None:
            entry["index_set"] = sorted(e.index_set)
        elements.append(entry)
    payload["elements"] = elements
    payload["burrows"] = [
        {
            "id": b.id,
            "codim": b.codim,
            "defining_set": sorted(b.defining_set),
            "basis_labels": [list(ls) for ls in b.algebra.labels],
            "structure": structure_of[b.algebra.structure],
        }
        for b in sorted(diagram.burrows.values(), key=lambda b: b.id)
    ]
    if diagram.relations:
        payload["relations"] = [
            [x, name, _element_payload(cls)] for x, name, cls in diagram.relations
        ]
    if diagram.symmetry_generators:
        payload["symmetry"] = [
            {
                "elements": gen.elements,
                "burrows": gen.burrows,
                "bases": {b: list(perm) for b, perm in gen.bases.items()},
            }
            for gen in diagram.symmetry_generators
        ]
    return payload


def _symmetry_from(entries) -> list[Permutation]:
    """The declared generators; their ids and bijectivity are checked by
    ``BurrowDiagram``, whether each is an automorphism by its ``symmetry``."""
    if not isinstance(entries, list):
        raise InputError(f"symmetry {entries!r} is not a list of generators")
    out = []
    for gen in entries:
        if not isinstance(gen, dict):
            raise InputError(f"symmetry generator {gen!r} is not an object")
        maps = [gen["elements"], gen["burrows"]]
        for m in maps:
            if not (isinstance(m, dict) and all(type(v) is str for v in m.values())):
                raise InputError(f"symmetry map {m!r} is not an object of ids")
        bases = gen["bases"]
        if not isinstance(bases, dict):
            raise InputError(f"symmetry bases {bases!r} is not an object")
        for b, perm in bases.items():
            if not (isinstance(perm, list) and all(type(i) is int for i in perm)):
                raise InputError(f"symmetry basis map of {b} {perm!r} is not a list of integers")
        out.append(Permutation(*maps, {b: tuple(perm) for b, perm in bases.items()}))
    return out


def _relations_from(alg: GradedAlgebra, entries) -> list:
    if not isinstance(entries, list):
        raise InputError(f"relations {entries!r} is not a list")
    out = []
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and all(isinstance(v, str) for v in entry[:2])
        ):
            raise InputError(f"relation {entry!r} is not [element, name, class]")
        x, name, vec = entry
        out.append((x, name, _element_from(alg, vec)))
    return out


def _ref(value, size: int, what: str) -> int:
    """An index into a table of ``size`` entries; a bool, a negative number,
    one past the end or anything else raises InputError naming the field."""
    if type(value) is not int or not 0 <= value < size:
        raise InputError(f"{what} {value!r} is not an index of its table (0..{size - 1})")
    return value


def _class_from(alg: GradedAlgebra, payload, where: str) -> Element:
    """A class written as ``[basis index, value]`` pairs."""
    if not isinstance(payload, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in payload
    ):
        raise InputError(f"{where} class {payload!r} is not a list of [basis index, value]")
    coeffs = {}
    for g, q in payload:
        if type(g) is not int or not 0 <= g < alg.total_dim or g in coeffs:
            raise InputError(f"{where} basis index {g!r} is out of range or repeated")
        coeffs[g] = parse_rat(q, "class coefficient")
    return Element(alg, coeffs)


def _edge_from(entry, nodes, maps, made) -> tuple:
    """One edge of a diagram file, ``[small, big, maps index]``, as the
    triple ``BurrowDiagram`` takes.  Its datum is read and checked once per
    (``maps`` entry, structures of the two burrows, codim difference), the
    shift of the pushforward; every other edge with the same key is given
    the same object.  Each malformed part names the first edge that reads
    it."""
    if not (isinstance(entry, list) and len(entry) == 3):
        raise InputError(f"edge {entry!r} is not [small, big, maps]")
    small, big, ref = entry
    where = f"edge {small}<{big}"
    for bid in (small, big):
        if not (isinstance(bid, str) and bid in nodes):
            raise InputError(f"{where} names an unknown burrow {bid!r}")
    ns, nb = nodes[small], nodes[big]
    ref = _ref(ref, len(maps), f"{where} maps")
    shift = ns.codim - nb.codim
    key = (ref, nb.algebra.structure, ns.algebra.structure, shift)
    if key not in made:
        datum = maps[ref]
        pull = _map_from(nb.algebra, ns.algebra, 0, datum["pullback"], f"{where} pullback")
        push = _map_from(ns.algebra, nb.algebra, shift, datum["pushforward"], f"{where} pushforward")
        if not isinstance(datum["chern"], list):
            raise InputError(f"{where} chern is not a list of classes")
        chern = tuple(_class_from(nb.algebra, c, f"{where} chern") for c in datum["chern"])
        made[key] = BurrowEdge(pull, push, ChernPolynomial(len(chern), chern))
    return small, big, made[key]


def diagram_from_payload(payload: dict) -> BurrowDiagram:
    if payload.get("kind") != "diagram":
        raise InputError(
            f"expected a diagram file, got kind={payload.get('kind')!r}"
        )
    for table in ("structures", "maps"):
        if table not in payload:
            raise InputError(
                f"diagram file has no {table} table; files that keep an algebra on "
                "each burrow and maps on each edge are an older format, not read"
            )
    try:
        elements = [
            BuildingElement(
                _str_field(e["id"], "element id"),
                _int_field(e["codim"], f"element {e['id']} codim"),
                frozenset(_str_list(e["index_set"], f"element {e['id']} index_set"))
                if "index_set" in e
                else None,
            )
            for e in _objects(payload["elements"], "elements")
        ]
        structures = [Structure.from_payload(s) for s in _objects(payload["structures"], "structures")]
        burrows = [
            BurrowNode(
                _str_field(b["id"], "burrow id"),
                frozenset(_str_list(b["defining_set"], f"burrow {b['id']} defining_set")),
                _int_field(b["codim"], f"burrow {b['id']} codim"),
                GradedAlgebra.on(
                    structures[_ref(b["structure"], len(structures), f"burrow {b['id']} structure")],
                    b["basis_labels"],
                ),
            )
            for b in _objects(payload["burrows"], "burrows")
        ]
        nodes = {b.id: b for b in burrows}
        maps, made = _objects(payload["maps"], "maps"), {}
        edges = payload["edges"]
        if not isinstance(edges, list):
            raise InputError(f"edges {edges!r} is not a list of [small, big, maps]")
        edges = [_edge_from(e, nodes, maps, made) for e in edges]
        inter = payload["intersections"]
        if not isinstance(inter, dict):
            raise InputError(f"intersections {inter!r} is not an object")
        if "meets" in inter:
            raise InputError(
                "diagram field intersections.meets is not read: meets derive from the edges"
            )
        singles = inter["singles"]
        if not (
            isinstance(singles, dict) and all(type(v) is str for v in singles.values())
        ):
            raise InputError(f"singles {singles!r} is not an object of burrow ids")
        nests = payload["nests"]
        if nests != NESTED_OR_DISJOINT:
            if not isinstance(nests, dict):
                raise InputError(
                    f"nests {nests!r} is neither {NESTED_OR_DISJOINT!r} nor an object"
                )
            explicit = nests["explicit"]
            if not isinstance(explicit, list):
                raise InputError(f"explicit nests {explicit!r} is not a list of lists")
            nests = [frozenset(_str_list(s, "explicit nest")) for s in explicit]
        ambient = next((b.algebra for b in burrows if b.codim == 0), None)
        if ambient is None:
            raise InputError("diagram file has no codim-0 burrow")
        relations = _relations_from(ambient, payload.get("relations", []))
        return BurrowDiagram(
            socle_degree=_int_field(payload["socle_degree"], "socle_degree"),
            elements=elements,
            burrows=burrows,
            edges=edges,
            singles=singles,
            nests=nests,
            relations=relations,
            symmetry=_symmetry_from(payload.get("symmetry", [])),
        )
    except KeyError as e:
        raise InputError(f"diagram file missing field {e}") from None


def _object(values: dict, nl: str) -> str:
    """The text of an object of strings, keys sorted."""
    return _seq((f"{_quote(k)}: {_quote(v)}" for k, v in sorted(values.items())), nl, "{}")


def dump_diagram(diagram: BurrowDiagram) -> str:
    """``json.dumps(diagram_payload(diagram), sort_keys=True, indent=1)``
    and a newline, with the elements, burrows, relations and symmetry
    sections written straight from the diagram, fields in key order (ids,
    labels and names are strings, codims and indices ints)."""
    payload, structure_of = _tables(diagram)
    nl1, nl2, nl3, nl4 = ("\n" + " " * depth for depth in range(1, 5))  # a line start per depth

    def section(records, brackets="{}"):  # records given as their field texts
        return _Text(_seq((_seq(r, nl2, brackets) for r in records), nl1))

    rows = []
    for x, e in sorted(diagram.elements.items()):
        rows.append([f'"codim": {e.codim}', f'"id": {_quote(x)}'])
        if e.index_set is not None:
            rows[-1].append('"index_set": ' + _seq(map(_quote, sorted(e.index_set)), nl3))
    payload["elements"] = section(rows)
    rows = []
    for x, b in sorted(diagram.burrows.items()):
        labels = (_seq(map(_quote, ls), nl4) for ls in b.algebra.labels)
        rows.append(
            [
                '"basis_labels": ' + _seq(labels, nl3),
                f'"codim": {b.codim}',
                '"defining_set": ' + _seq(map(_quote, sorted(b.defining_set)), nl3),
                f'"id": {_quote(x)}',
                f'"structure": {structure_of[b.algebra.structure]}',
            ]
        )
    payload["burrows"] = section(rows)
    if diagram.relations:
        term = '[\n     {},\n     "{}"\n    ]'.format  # a [label, value] pair, str(q) == format_rat(q)
        rows = []
        for x, name, cls in diagram.relations:
            pairs = (term(_quote(cls.alg.label_of(g)), q) for g, q in sorted(cls.coeffs.items()))
            rows.append([_quote(x), _quote(name), _seq(pairs, nl3)])
        payload["relations"] = section(rows, "[]")
    if diagram.symmetry_generators:
        rows = []
        for gen in diagram.symmetry_generators:
            bases = sorted(gen.bases.items())
            bases = _seq((f"{_quote(b)}: " + _seq(map(str, p), nl4) for b, p in bases), nl3, "{}")
            burrows, elements = _object(gen.burrows, nl3), _object(gen.elements, nl3)
            rows.append([f'"bases": {bases}', f'"burrows": {burrows}', f'"elements": {elements}'])
        payload["symmetry"] = section(rows)
    return _dump_json(payload)


def load_diagram(text: str) -> BurrowDiagram:
    return diagram_from_payload(_load_json(text))


# -- oracle fixtures ----------------------------------------------------------


def load_oracle(text: str) -> dict:
    payload = _load_json(text)
    if payload.get("kind") != "oracle":
        raise InputError(
            f"expected an oracle fixture, got kind={payload.get('kind')!r}"
        )
    if "base" not in payload or "steps" not in payload:
        raise InputError("oracle fixture needs 'base' and 'steps'")
    return payload


def dump_oracle(payload: dict) -> str:
    return _dump_json(payload)
