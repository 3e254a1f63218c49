"""Semiring annotations: polynomials, witness bases, where-sets, side tables.

Polynomials live in the commutative semiring N[X] over tuple ids: ``+`` records
alternative derivations, ``*`` joint use.  Canonical form keeps monomials
sorted with like monomials merged; textual form is ``r1*s1 + 2*r3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, le
from typing import Iterable, Iterator

from .errors import ValidationError
from .model import Instance, InternTable, TupleId, Value, value_from_json, value_to_json

Monomial = tuple[TupleId, ...]  # sorted id multiset

MODES = ("none", "where", "why", "how")


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValidationError(f"unknown provenance mode {mode!r}; pick one of {MODES}")
    return mode


_ID_KEY = attrgetter("tag", "ordinal")  # TupleId.sort_key


def monomial(ids: Iterable[TupleId]) -> Monomial:
    ids = tuple(ids)
    return ids if len(ids) < 2 else tuple(sorted(ids, key=_ID_KEY))


def _mono_key(m: Monomial) -> tuple:
    return tuple(map(_ID_KEY, m))


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Canonical semiring polynomial: sorted (monomial, coefficient) pairs.

    Every polynomial the package builds is canonical: each monomial sorted,
    like monomials merged, no zero coefficient, the terms sorted by
    monomial.  ``of``, ``build``, ``zero`` and ``one`` make canonical
    polynomials, and so does every operation on canonical ones; a caller
    that constructs a ``Polynomial`` directly must keep the invariant."""

    terms: tuple[tuple[Monomial, int], ...]

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((((), 1),))

    @classmethod
    def of(cls, *ids: TupleId) -> "Polynomial":
        return cls(((monomial(ids), 1),))

    @classmethod
    def build(cls, terms: Iterable[tuple[Monomial, int]]) -> "Polynomial":
        acc: dict[Monomial, int] = {}
        for mono, coeff in terms:
            if coeff:
                mono = monomial(mono)
                acc[mono] = acc.get(mono, 0) + coeff
        cleaned = [(m, c) for m, c in acc.items() if c != 0]
        cleaned.sort(key=lambda mc: _mono_key(mc[0]))
        return cls(tuple(cleaned))

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self.terms)


def poly_add(*ps: Polynomial) -> Polynomial:
    """Sum any number of canonical polynomials, canonicalizing once; the sum
    of one polynomial is that polynomial."""
    if len(ps) == 1:
        return ps[0]
    return Polynomial.build(term for p in ps for term in p.terms)


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    out = []
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            out.append((monomial(ma + mb), ca * cb))
    return Polynomial.build(out)


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in p.terms:
        ids = "*".join(str(t) for t in mono)
        if not ids:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(ids)
        else:
            parts.append(f"{coeff}*{ids}")
    return " + ".join(parts)


def parse_polynomial(text: str, interned: InternTable | None = None) -> Polynomial:
    """Read ``format_polynomial``'s text form, its tuple ids through
    ``interned`` when given.  Text already in canonical order (each monomial
    sorted, the monomials strictly increasing, every coefficient at least
    1), as ``format_polynomial`` writes it, is taken as it stands; anything
    else is canonicalized.  A text with no ``+``, no ``*`` and not all
    digits is one tuple id, read without the term parser: the result, or
    the error, is the one the term parser gives."""
    parse_id = interned.tid if interned else TupleId.parse
    text = text.strip()
    if "+" not in text and "*" not in text and text and not text.isdigit():
        return Polynomial((((parse_id(text),), 1),))
    if text == "0":
        return Polynomial.zero()
    terms = []
    canonical = True
    last_key = None
    for chunk in text.split("+"):
        coeff = 1
        ids: list[TupleId] = []
        factors = [f.strip() for f in chunk.split("*")]
        if not any(factors):
            raise ValidationError(f"malformed polynomial term {chunk!r}")
        for i, factor in enumerate(factors):
            if not factor:
                raise ValidationError(f"malformed polynomial term {chunk!r}")
            if i == 0 and factor.isdigit():
                try:
                    coeff = int(factor)
                except ValueError:  # a digit int() does not read, or too many
                    raise ValidationError(
                        f"malformed polynomial coefficient {factor!r}") from None
            else:
                ids.append(parse_id(factor))
        key = _mono_key(ids)
        canonical = (canonical and coeff >= 1 and (last_key is None or last_key < key)
                     and all(map(le, key, key[1:])))
        last_key = key
        terms.append((tuple(ids), coeff))
    return Polynomial(tuple(terms)) if canonical else Polynomial.build(terms)


# ---------------------------------------------------------------------------
# witness bases (why-provenance)

Witness = frozenset[TupleId]
WitnessBasis = frozenset[Witness]


def witness_basis(witnesses: Iterable[Iterable[TupleId]]) -> WitnessBasis:
    return frozenset(frozenset(w) for w in witnesses)


def to_witness_basis(p: Polynomial) -> WitnessBasis:
    """Project a polynomial onto its witness basis: one witness per monomial,
    coefficients and multiplicities dropped, duplicates merged."""
    return frozenset(frozenset(m) for m, _ in p.terms)


def basis_to_json(basis: WitnessBasis) -> list[list[str]]:
    return sorted([str(t) for t in sorted(w, key=_ID_KEY)] for w in basis)


def basis_from_json(obj, interned: InternTable | None = None) -> WitnessBasis:
    if not (isinstance(obj, list) and all(isinstance(w, list) for w in obj)):
        raise ValidationError(
            f"witness basis must be a list of lists of tuple ids, got {obj!r}")
    parse_id = interned.tid if interned else TupleId.parse
    return witness_basis([[parse_id(s) for s in w] for w in obj])


# ---------------------------------------------------------------------------
# provenance stores

Annotation = Polynomial | WitnessBasis | frozenset  # how | why | where


@dataclass
class ProvenanceStore:
    """Per-target-fact annotations produced by one chase."""

    mode: str
    annotations: dict[TupleId, Annotation]

    def __post_init__(self):
        check_mode(self.mode)

    @classmethod
    def empty(cls, mode: str) -> "ProvenanceStore":
        return cls(mode, {})

    def witnesses(self, tid: TupleId) -> WitnessBasis | None:
        """Witness basis for a fact, derivable in why and how modes."""
        ann = self.annotations.get(tid)
        if ann is None:
            return None
        if self.mode == "how":
            return to_witness_basis(ann)
        if self.mode == "why":
            return ann
        return None

    def relation_names(self, tid: TupleId) -> frozenset[str] | None:
        if self.mode != "where":
            return None
        return self.annotations.get(tid)


def store_to_json(store: ProvenanceStore) -> dict:
    ann: dict[str, object] = {}
    for tid in sorted(store.annotations, key=lambda t: t.sort_key()):
        value = store.annotations[tid]
        if store.mode == "how":
            ann[str(tid)] = format_polynomial(value)
        elif store.mode == "why":
            ann[str(tid)] = basis_to_json(value)
        elif store.mode == "where":
            ann[str(tid)] = sorted(value)
    return {"mode": store.mode, "annotations": ann}


def store_from_json(obj, interned: InternTable | None = None) -> ProvenanceStore:
    parse_id = interned.tid if interned else TupleId.parse
    if not isinstance(obj, dict):
        raise ValidationError("provenance store JSON must be an object")
    mode = check_mode(obj.get("mode", "none"))
    raw = obj.get("annotations", {})
    if not isinstance(raw, dict):
        raise ValidationError("store 'annotations' must be an object keyed by tuple id")
    if mode == "none" and raw:
        raise ValidationError("a store with provenance none holds no annotations")
    annotations: dict[TupleId, Annotation] = {}
    for key, value in raw.items():
        tid = parse_id(key)
        if mode == "how":
            if not isinstance(value, str):
                raise ValidationError(
                    f"how-provenance of {key} must be a polynomial string, got {value!r}")
            annotations[tid] = parse_polynomial(value, interned)
        elif mode == "why":
            annotations[tid] = basis_from_json(value, interned)
        elif mode == "where":
            if not (isinstance(value, list) and all(isinstance(n, str) for n in value)):
                raise ValidationError(
                    f"where-provenance of {key} must be a list of relation names, "
                    f"got {value!r}")
            annotations[tid] = frozenset(value)
    return ProvenanceStore(mode, annotations)


# ---------------------------------------------------------------------------
# side tables


@dataclass(frozen=True)
class SideTableSpec:
    """What to persist next to a chase result.

    ``dangling``: full rows of ``relation`` that matched no trigger of the
    mapping.  ``projection``: the named attributes of every row, keyed by
    tuple id (an empty attribute list keeps ids only, preserving cardinality).
    """

    name: str
    relation: str
    kind: str  # "dangling" | "projection"
    attributes: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("dangling", "projection"):
            raise ValidationError(f"unknown side table kind {self.kind!r}")


@dataclass(frozen=True)
class SideRow:
    ref: TupleId
    values: tuple[Value, ...]


@dataclass(frozen=True)
class SideTable:
    name: str
    attributes: tuple[str, ...]
    rows: tuple[SideRow, ...]


def build_side_table(source: Instance, spec: SideTableSpec,
                     matched_ids: frozenset[TupleId] | None = None) -> SideTable:
    """Materialize a side table from the chase-phase source instance.

    For ``dangling`` specs the caller supplies the set of tuple ids that
    participated in at least one trigger; rows are the relation's remaining
    tuples.  For ``projection`` specs every row is projected onto the spec's
    attributes.
    """
    rel = source.schema.relation(spec.relation)
    if spec.kind == "dangling":
        if matched_ids is None:
            raise ValidationError("dangling side tables need the matched-id set")
        rows = tuple(
            SideRow(f.id, f.values)
            for f in source.facts(rel.name)
            if f.id not in matched_ids
        )
        return SideTable(spec.name, rel.attributes, rows)
    positions = [rel.position(a) for a in spec.attributes]
    rows = tuple(
        SideRow(f.id, tuple(f.values[p] for p in positions))
        for f in source.facts(rel.name)
    )
    return SideTable(spec.name, spec.attributes, rows)


def side_table_to_json(table: SideTable) -> dict:
    return {
        "name": table.name,
        "attributes": list(table.attributes),
        "rows": [
            {"ref": str(r.ref), "values": [value_to_json(v) for v in r.values]}
            for r in table.rows
        ],
    }


def side_table_from_json(obj, interned: InternTable | None = None) -> SideTable:
    """Read a side table, its tuple ids through ``interned`` when given, and
    its constants too when ``obj`` was parsed with ``interned.hook``.  An
    error names the table, and a malformed row its index."""
    parse_id = interned.tid if interned else TupleId.parse
    decode = interned.value if interned else value_from_json
    if not (isinstance(obj, dict) and isinstance(obj.get("name"), str)
            and isinstance(obj.get("attributes"), list)
            and all(isinstance(a, str) for a in obj["attributes"])
            and isinstance(obj.get("rows", []), list)):
        raise ValidationError(
            f"malformed side table JSON: expected an object with a "
            f"string 'name', a list of string 'attributes' and a 'rows' list")
    rows = obj.get("rows", [])
    for i, r in enumerate(rows):
        if not (isinstance(r, dict) and "ref" in r and isinstance(r.get("values"), list)):
            raise ValidationError(
                f"side table {obj['name']}: row {i} must be an object with a "
                f"'ref' and a 'values' list")
    table = SideTable(
        obj["name"],
        tuple(obj["attributes"]),
        tuple(SideRow(parse_id(r["ref"]), tuple(map(decode, r["values"])))
              for r in rows),
    )
    for row in table.rows:
        if len(row.values) != len(table.attributes):
            raise ValidationError(
                f"side table {table.name}: row {row.ref} has {len(row.values)} "
                f"values for {len(table.attributes)} attributes")
    return table
