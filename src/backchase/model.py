"""Relational core: constants, labeled nulls, tuple ids, schemas and instances.

Instances are immutable once built.  Relations hold (tuple-id, value vector)
entries, so two entries may carry equal value vectors while remaining distinct
facts; all duplicate bookkeeping in the rest of the package relies on that.

Constants come in three kinds derived from their lexical form: ``integer``
(canonical ``-?[0-9]+``), ``decimal`` (canonical form always keeps at least one
fraction digit, trailing zeros stripped) and ``text`` (everything else).
Decimals are kept as exact scaled integers internally, never floats, so
arithmetic such as ``1.7 + 3.3 = 5.0`` is bit-stable.

Constants, nulls and tuple ids are immutable tuples of their fields, and
``const`` shares one object among equal constants it built recently.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SchemaMismatch, ValidationError

TEXT = "text"
INTEGER = "integer"
DECIMAL = "decimal"

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_DEC_RE = re.compile(r"[+-]?[0-9]+\.[0-9]+\Z")
_NUMBER_START = frozenset("+-0123456789")  # first characters of _INT_RE / _DEC_RE


# ---------------------------------------------------------------------------
# values
#
# Constants, nulls and tuple ids are ``tuple`` subclasses holding exactly
# their fields, so hashing, equality and construction run in C, and each
# field reads through an ``itemgetter`` property.  Values of different
# classes never compare equal: a constant holds two strings, a null one
# integer and a tuple id a string and an integer.  A value does equal the
# plain tuple of its fields, so no collection may mix the two.
# ``__getnewargs__`` hands the fields back to ``__new__`` for ``copy`` and
# ``pickle``.  Sort keys stay plain tuples of ``str`` and ``int``: CPython
# compares exact tuples faster than subclasses.


class Constant(tuple):
    """``(lexical, kind)``; the kind is derived from the lexical form."""

    __slots__ = ()
    lexical = property(itemgetter(0))
    kind = property(itemgetter(1))

    def __new__(cls, lexical: str, kind: str) -> "Constant":
        return tuple.__new__(cls, (lexical, kind))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Constant({self.lexical!r})"


class Null(tuple):
    """``(label,)``."""

    __slots__ = ()
    label = property(itemgetter(0))

    def __new__(cls, label: int) -> "Null":
        return tuple.__new__(cls, (label,))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Null({self.label})"


Value = Constant | Null


def _canon_decimal(lexical: str) -> str:
    negative = lexical.startswith("-")
    digits = lexical.lstrip("+-")
    whole, frac = digits.split(".")
    whole = whole.lstrip("0") or "0"
    frac = frac.rstrip("0") or "0"
    if whole == "0" and frac == "0":
        negative = False
    return ("-" if negative else "") + whole + "." + frac


_SHARED_CONSTANTS = 1 << 12  # lexical forms whose constant ``const`` keeps


def const(lexical: str) -> Constant:
    """Build a constant, deriving its kind from the lexical form and
    canonicalizing (leading zeros, signs, trailing decimal zeros).  Equal
    lexical forms share one object while they stay among the most recently
    used ``_SHARED_CONSTANTS``, so an instance holds each repeated cell
    value once."""
    if not isinstance(lexical, str):
        raise ValidationError(f"constant lexical must be a string, got {lexical!r}")
    return _shared_const(lexical)


@lru_cache(maxsize=_SHARED_CONSTANTS)
def _shared_const(lexical: str) -> Constant:
    if not lexical or lexical[0] not in _NUMBER_START:
        return Constant(lexical, TEXT)
    if _INT_RE.match(lexical):
        try:
            return Constant(str(int(lexical)), INTEGER)
        except ValueError:  # more digits than int() converts
            raise ValidationError(
                f"integer constant of {len(lexical)} characters is too long") from None
    if _DEC_RE.match(lexical):
        canonical = _canon_decimal(lexical)
        try:  # numeric_value reads both parts with int()
            for digits in canonical.lstrip("-").split("."):
                int(digits)
        except ValueError:  # more digits than int() converts
            raise ValidationError(
                f"decimal constant of {len(lexical)} characters is too long") from None
        return Constant(canonical, DECIMAL)
    return Constant(lexical, TEXT)


def null(label: int) -> Null:
    if not isinstance(label, int) or isinstance(label, bool) or label < 1:
        raise ValidationError(f"null label must be a positive integer, got {label!r}")
    return Null(label)


def numeric_value(value: Constant) -> Fraction:
    if value.kind == INTEGER:
        return Fraction(int(value.lexical))
    if value.kind == DECIMAL:
        whole, frac = value.lexical.split(".")
        sign = -1 if whole.startswith("-") else 1
        whole = whole.lstrip("-")
        return sign * (Fraction(int(whole)) + Fraction(int(frac), 10 ** len(frac)))
    raise ValidationError(f"not a numeric constant: {value!r}")


def value_sort_key(value: Value) -> tuple:
    """Total order used for canonical instance layout: constants before
    nulls, constants by canonical lexical, nulls by label."""
    if isinstance(value, Constant):
        return (0, value.lexical)
    return (1, value.label)


_KIND_RANK = {INTEGER: 0, DECIMAL: 1}


def constant_order_key(value: Constant) -> tuple:
    """Total order used by comparison conditions.  Numeric kinds compare by
    rational value (kind breaks exact ties, so ``5 < 5.0`` while ``5 = 5.0``
    is false); text compares lexicographically; numerics sort before text."""
    if value.kind in _KIND_RANK:
        return (0, numeric_value(value), _KIND_RANK[value.kind], value.lexical)
    return (1, value.lexical, 0, "")


# ---------------------------------------------------------------------------
# tuple identifiers


class TupleId(tuple):
    """``(tag, ordinal)``, written ``<tag><ordinal>``."""

    __slots__ = ()
    tag = property(itemgetter(0))
    ordinal = property(itemgetter(1))

    def __new__(cls, tag: str, ordinal: int) -> "TupleId":
        return tuple.__new__(cls, (tag, ordinal))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __str__(self) -> str:
        return f"{self.tag}{self.ordinal}"

    def __repr__(self) -> str:
        return f"TupleId({str(self)!r})"

    def sort_key(self) -> tuple[str, int]:
        return (self.tag, self.ordinal)

    @classmethod
    def parse(cls, text: str) -> "TupleId":
        """Split ``text`` into a tag and its trailing run of ASCII digits;
        the tag must be nonempty and may not contain a line break."""
        if isinstance(text, str):
            tag = text.rstrip("0123456789")
            if tag and len(tag) < len(text) and "\n" not in tag:
                try:
                    return cls(tag, int(text[len(tag):]))
                except ValueError:  # more digits than int() converts
                    pass
        raise ValidationError(f"malformed tuple id {text!r}; expected <tag><ordinal>")


_new_tuple = tuple.__new__  # builds a value from its fields, skipping ``__new__``


class NullAllocator:
    """Hands out strictly increasing null labels for one pipeline run."""

    def __init__(self, start_after: int = 0):
        self._last = start_after

    def fresh(self) -> Null:
        self._last += 1
        return _new_tuple(Null, (self._last,))

    @property
    def last(self) -> int:
        return self._last


class IdAllocator:
    """Hands out tuple ids per tag; never reuses an ordinal within a run."""

    def __init__(self):
        self._last: dict[str, int] = {}

    def fresh(self, tag: str) -> TupleId:
        nxt = self._last.get(tag, 0) + 1
        self._last[tag] = nxt
        return _new_tuple(TupleId, (tag, nxt))


_TAG_UNSAFE = re.compile(r"[+*]|^\s+|\s+$")


def relation_tag(name: str) -> str:
    """The lower-cased name, with ``_`` appended after a final digit so
    that ``TupleId.parse`` splits every id of the relation back, and ``_``
    for each ``+``, ``*`` and leading or trailing whitespace character, which
    how-provenance text (``format_polynomial``) would split at or strip."""
    tag = name.lower()
    if "+" in tag or "*" in tag or tag.strip() != tag:
        tag = _TAG_UNSAFE.sub(lambda m: "_" * len(m[0]), tag)
    return tag + "_" if tag[-1:] in "0123456789" else tag


# ---------------------------------------------------------------------------
# schemas


@dataclass(frozen=True)
class RelationSchema:
    name: str
    attributes: tuple[str, ...]

    def __post_init__(self):
        if not (self.name and isinstance(self.name, str)):
            raise ValidationError(f"relation name must be a nonempty string, got {self.name!r}")
        if not all(isinstance(a, str) for a in self.attributes):
            raise ValidationError(f"attributes of {self.name} must be strings")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValidationError(f"duplicate attribute in relation {self.name}")

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def position(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise ValidationError(
                f"relation {self.name} has no attribute {attribute!r}"
            ) from None


@dataclass(frozen=True)
class Schema:
    relations: tuple[RelationSchema, ...]

    def __post_init__(self):
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate relation name in schema")

    @classmethod
    def of(cls, *relations: RelationSchema) -> "Schema":
        return cls(tuple(relations))

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.relations)

    def has(self, name: str) -> bool:
        return any(r.name == name for r in self.relations)

    def relation(self, name: str) -> RelationSchema:
        for r in self.relations:
            if r.name == name:
                return r
        raise ValidationError(f"schema has no relation {name!r}")

    def replacing(self, *changes: RelationSchema, drop: Iterable[str] = (),
                  add: Iterable[RelationSchema] = ()) -> "Schema":
        dropped = set(drop)
        by_name = {c.name: c for c in changes}
        out = [by_name.get(r.name, r) for r in self.relations if r.name not in dropped]
        out.extend(add)
        return Schema(tuple(out))


def schemas_equal(a: Schema, b: Schema) -> bool:
    return sorted(a.relations, key=lambda r: r.name) == sorted(
        b.relations, key=lambda r: r.name
    )


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True, slots=True)
class Fact:
    id: TupleId
    values: tuple[Value, ...]


_VALUES = attrgetter("values")
_ID = attrgetter("id")
_TAG = attrgetter("id.tag")
_ORDINAL = attrgetter("id.ordinal")


def holds_null(facts: Iterable[Fact]) -> bool:
    """Whether any of the facts holds a null, tested on the set of value
    types rather than value by value."""
    return Null in set(map(type, chain.from_iterable(map(_VALUES, facts))))


class Instance:
    """A database instance: per-relation collections of identified facts."""

    __slots__ = ("schema", "_facts", "_sorted")

    def __init__(self, schema: Schema, facts: Mapping[str, Sequence[Fact]]):
        """Checks that every fact has its relation's arity, that no tuple id
        occurs twice and that every relation of ``facts`` is in the schema.
        The checks run over whole relations first; only when one fails does
        the fact-by-fact pass run, to raise the first error in fact order."""
        self.schema = schema
        stored = {rel.name: tuple(facts.get(rel.name, ())) for rel in schema.relations}
        ids: set[TupleId] = set()
        valid = stored.keys() >= facts.keys()
        for rel in schema.relations:
            entries = stored[rel.name]
            if entries and set(map(len, map(_VALUES, entries))) != {rel.arity}:
                valid = False
            ids.update(map(_ID, entries))
        if not valid or len(ids) != sum(map(len, stored.values())):
            _raise_first_error(schema, stored, facts)
        self._facts = stored
        self._sorted: dict[str, tuple[Fact, ...]] = {}

    def facts(self, relation: str) -> tuple[Fact, ...]:
        if relation not in self._facts:
            raise ValidationError(f"instance has no relation {relation!r}")
        return self._facts[relation]

    def sorted_facts(self, relation: str) -> tuple[Fact, ...]:
        """One relation's facts in canonical order (``fact_sort_key``),
        sorted on first use and kept, since the instance never changes."""
        ordered = self._sorted.get(relation)
        if ordered is None:
            ordered = self._sorted[relation] = tuple(
                sorted(self.facts(relation), key=fact_sort_key))
        return ordered

    def iter_facts(self) -> Iterator[tuple[str, Fact]]:
        for rel in self.schema.relations:
            for fact in self._facts[rel.name]:
                yield rel.name, fact

    def size(self) -> int:
        return sum(len(v) for v in self._facts.values())

    def has_nulls(self) -> bool:
        return holds_null(chain.from_iterable(self._facts.values()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.schema == other.schema and self._facts == other._facts

    def __repr__(self) -> str:
        rels = ", ".join(f"{r}:{len(self._facts[r])}" for r in self.schema.names())
        return f"Instance({rels})"


def _raise_first_error(schema: Schema, stored: dict[str, tuple[Fact, ...]],
                       facts: Mapping[str, Sequence[Fact]]) -> None:
    """Raise the error ``Instance`` reports for facts that fail its checks:
    the first bad arity or repeated id in fact order, else the relations
    the schema lacks."""
    seen_ids: set[TupleId] = set()
    for rel in schema.relations:
        for fact in stored[rel.name]:
            if len(fact.values) != rel.arity:
                raise ValidationError(
                    f"fact {fact.id} has arity {len(fact.values)}, "
                    f"relation {rel.name} expects {rel.arity}"
                )
            if fact.id in seen_ids:
                raise ValidationError(f"duplicate tuple id {fact.id} in instance")
            seen_ids.add(fact.id)
    unknown = set(facts) - set(stored)
    raise ValidationError(f"facts for relations not in schema: {sorted(unknown)}")


def seed_allocators(*instances: Instance) -> tuple[NullAllocator, IdAllocator]:
    """Allocators that continue after every null label and tuple id the
    instances hold.  A relation whose ids share one tag takes its largest
    ordinal with ``max``; values are read one by one only in relations
    that hold a null."""
    last_null = 0
    ids = IdAllocator()
    last_id = ids._last
    for inst in instances:
        for facts in inst._facts.values():
            if not facts:
                continue
            tags = set(map(_TAG, facts))
            if len(tags) == 1:
                (tag,) = tags
                top = max(map(_ORDINAL, facts))
                if top > last_id.get(tag, 0):
                    last_id[tag] = top
            else:
                for tid in map(_ID, facts):
                    if tid.ordinal > last_id.get(tid.tag, 0):
                        last_id[tid.tag] = tid.ordinal
            if holds_null(facts):
                last_null = max(last_null, max(
                    v.label for f in facts for v in f.values if type(v) is Null))
    return NullAllocator(last_null), ids


# ---------------------------------------------------------------------------
# normalization and equality


def fact_sort_key(fact: Fact) -> tuple:
    """Canonical fact order: value vector (by ``value_sort_key``), then
    tuple id (tag, then ordinal)."""
    tid = fact.id
    return ([(0, v.lexical) if type(v) is Constant else (1, v.label)
             for v in fact.values], tid.tag, tid.ordinal)


def _normal_pass(instance: Instance) -> Instance:
    relabel: dict[int, int] = {}
    ordered: list[tuple[RelationSchema, list[Fact]]] = []
    for rel in sorted(instance.schema.relations, key=lambda r: r.name):
        facts = sorted(instance.facts(rel.name), key=fact_sort_key)
        for fact in facts:
            for v in fact.values:
                if isinstance(v, Null) and v.label not in relabel:
                    relabel[v.label] = len(relabel) + 1
        ordered.append((rel, facts))
    out: dict[str, list[Fact]] = {}
    for rel, facts in ordered:
        out[rel.name] = [
            Fact(
                f.id,
                tuple(
                    Null(relabel[v.label]) if isinstance(v, Null) else v
                    for v in f.values
                ),
            )
            for f in facts
        ]
    schema = Schema(tuple(rel for rel, _ in ordered))
    return Instance(schema, out)


def _instance_key(instance: Instance) -> tuple:
    return tuple(
        (
            rel.name,
            rel.attributes,
            tuple((f.id.sort_key(), tuple(value_sort_key(v) for v in f.values))
                  for f in instance.facts(rel.name)),
        )
        for rel in instance.schema.relations
    )


def normalize(instance: Instance) -> Instance:
    """Canonical form: relations sorted by name, facts sorted by value vector
    then id, null labels renumbered 1..k in first-occurrence order.

    Sorting keys involve null labels, and relabeling can in turn perturb the
    sort, so the pass is iterated to a fixpoint; should the iteration ever
    cycle, the lexicographically least state of the cycle is returned, which
    keeps the function deterministic and idempotent.
    """
    seen: dict[tuple, int] = {}
    states: list[Instance] = []
    cur = instance
    while True:
        key = _instance_key(cur)
        if key in seen:
            cycle = states[seen[key]:]
            return min(cycle, key=_instance_key)
        seen[key] = len(states)
        states.append(cur)
        cur = _normal_pass(cur)


def require_same_schema(a: Instance, b: Instance) -> None:
    if not schemas_equal(a.schema, b.schema):
        raise SchemaMismatch(
            f"instances are not comparable: schemas {a.schema.names()} "
            f"vs {b.schema.names()}"
        )


def vector_counts(facts: Iterable[Fact]) -> dict[tuple[Value, ...], int]:
    """The multiset of the facts' value vectors, as a plain dict: its
    ``==`` compares in C with the stored hashes, where ``Counter.__eq__``
    looks every key up again in Python."""
    return dict(Counter(map(_VALUES, facts)))


def instances_equal(a: Instance, b: Instance) -> bool:
    """True iff the normalized instances carry identical value-vector
    multisets per relation.  Tuple ids are ignored; null labels are compared
    after each side's independent canonical renumbering, so ground instances
    compare literally and null-bearing instances compare up to relabeling.

    Ground instances are compared as per-relation multisets without
    normalizing, and a ground instance never equals one with nulls, since
    renumbering keeps every null a null."""
    require_same_schema(a, b)
    a_nulls, b_nulls = a.has_nulls(), b.has_nulls()
    if a_nulls != b_nulls:
        return False
    if not a_nulls:
        return all(
            vector_counts(a.facts(rel)) == vector_counts(b.facts(rel))
            for rel in a.schema.names()
        )
    na, nb = normalize(a), normalize(b)
    for rel in na.schema.names():
        va = [f.values for f in na.facts(rel)]
        vb = [f.values for f in nb.facts(rel)]
        if va != vb:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON form (the bit-exact instance exchange format)


def value_to_json(value: Value) -> dict:
    if isinstance(value, Constant):
        return {"const": value.lexical}
    return {"null": value.label}


def value_from_json(obj) -> Value:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValidationError(f"malformed value {obj!r}")
    if "const" in obj:
        return const(obj["const"])
    if "null" in obj:
        return null(obj["null"])
    raise ValidationError(f"malformed value {obj!r}")


class InternTable:
    """The constants and tuple ids decoded while reading one run, or one
    instance file, by their text, so that each text is decoded once and one
    object stands for it in every file.  Constants are decoded by ``hook``
    as the JSON parser closes each constant object; ``value`` takes what
    the parser made of a value's JSON, and ``tid`` an id text."""

    def __init__(self):
        self._constants: dict[str, Constant] = {}
        self._ids: dict[str, TupleId] = {}

    def hook(self, obj: dict):
        """A ``json.loads`` object hook: a one-key ``{"const": <str>}``
        object becomes the table's constant for its text, and any other
        object stays as it is."""
        text = obj.get("const") if len(obj) == 1 else None
        if type(text) is not str:
            return obj
        found = self._constants.get(text)
        if found is None:
            found = self._constants[text] = const(text)
        return found

    def value(self, obj) -> Value:
        """A constant ``hook`` decoded as it stands; anything else through
        ``value_from_json``."""
        return obj if type(obj) is Constant else value_from_json(obj)

    def tid(self, text) -> TupleId:
        """``TupleId.parse(text)``, one object per id text."""
        found = self._ids.get(text) if type(text) is str else None
        if found is None:
            found = self._ids[text] = TupleId.parse(text)
        return found


def instance_to_json(instance: Instance) -> dict:
    return {
        "relations": [
            {
                "name": rel.name,
                "attributes": list(rel.attributes),
                "tuples": [
                    {"id": str(f.id), "values": [value_to_json(v) for v in f.values]}
                    for f in instance.facts(rel.name)
                ],
            }
            for rel in instance.schema.relations
        ]
    }


def instance_dumps(instance: Instance) -> str:
    """The file text of an instance: exactly what ``json.dumps`` with
    ``indent=2`` and ``ensure_ascii=False`` makes of ``instance_to_json``,
    plus a trailing newline, written out directly.  ``json.dumps`` with an
    indent runs its pure-Python encoder, which costs about ten times as much
    on instance-sized documents."""
    enc = encode_basestring
    rel_blocks = []
    for rel in instance.schema.relations:
        tuple_blocks = []
        for f in instance.facts(rel.name):
            value_blocks = [
                '            {\n              "const": ' + enc(v.lexical)
                + "\n            }"
                if type(v) is Constant else
                '            {\n              "null": ' + int.__repr__(v.label)
                + "\n            }"
                for v in f.values
            ]
            tuple_blocks.append(
                '        {\n          "id": ' + enc(str(f.id))
                + ',\n          "values": '
                + _dumps_list(value_blocks, "\n          ]")
                + "\n        }"
            )
        attrs = ["        " + enc(a) for a in rel.attributes]
        rel_blocks.append(
            '    {\n      "name": ' + enc(rel.name)
            + ',\n      "attributes": ' + _dumps_list(attrs, "\n      ]")
            + ',\n      "tuples": ' + _dumps_list(tuple_blocks, "\n      ]")
            + "\n    }"
        )
    return '{\n  "relations": ' + _dumps_list(rel_blocks, "\n  ]") + "\n}\n"


def _dumps_list(items: list[str], close: str) -> str:
    """An indented JSON array of already indented items; ``[]`` when empty,
    as ``json.dumps`` writes it."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + close


def instance_from_json(obj, interned: InternTable | None = None) -> Instance:
    """The instance of an instance file's JSON.  With ``interned``, the
    intern table of a run, each tuple id is the one object the table holds
    for its text, and so is each constant when ``obj`` was parsed with
    ``interned.hook``; they are shared with the run's other files."""
    parse_id = interned.tid if interned else TupleId.parse
    decode = interned.value if interned else value_from_json
    if not (isinstance(obj, dict) and isinstance(obj.get("relations"), list)):
        raise ValidationError("instance JSON must be an object with a 'relations' list")
    rels = []
    facts: dict[str, list[Fact]] = {}
    for i, rel_obj in enumerate(obj["relations"]):
        try:
            name = rel_obj["name"]
            attributes = rel_obj["attributes"]
            tuples = rel_obj.get("tuples", [])
        except (TypeError, KeyError):
            raise ValidationError(
                f"relation {i} must be an object with a 'name', an 'attributes' "
                f"list and a 'tuples' list") from None
        if not (isinstance(attributes, list) and isinstance(tuples, list)):
            raise ValidationError(
                f"malformed relation entry {name!r}: expected an 'attributes' "
                f"list and a 'tuples' list"
            )
        rels.append(RelationSchema(name, tuple(attributes)))
        entries = []
        for j, t in enumerate(tuples):
            if not (isinstance(t, dict) and "id" in t
                    and isinstance(t.get("values"), list)):
                raise ValidationError(
                    f"malformed tuple {j} in relation {name}: expected an object "
                    f"with an 'id' and a 'values' list")
            entries.append(Fact(parse_id(t["id"]), tuple(map(decode, t["values"]))))
        facts[name] = entries
    return Instance(Schema(tuple(rels)), facts)
