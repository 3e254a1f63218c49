"""The schema-modification operator catalog.

Sixteen operators (fifteen plus NOP), each compiled to a forward set of
source-to-target dependencies over the full schema (untouched relations get
identity dependencies so multi-step scripts chain), an inverse plan per
available resource level, side-table requirements, and a predicted inverse
type that is a guaranteed lower bound on what the classifier will report.

Operator classes:

* class I (``COPY_TABLE``, ``CREATE_TABLE``, ``PARTITION_TABLE``,
  ``RENAME_TABLE``, ``ADD_COLUMN``, ``COPY_COLUMN``, ``RENAME_COLUMN``,
  ``NOP``): exact inverses, provenance changes nothing.
* class II (``JOIN_TABLE``, also ``MOVE_COLUMN``): joins lose dangling rows;
  side tables restore them.
* class III (``DECOMPOSE_TABLE``, ``DROP_COLUMN``, ``MERGE_COLUMN``,
  ``SPLIT_COLUMN``, also ``MOVE_COLUMN``): value collisions merge rows;
  witness counts re-expand them, side tables plus inverse functions restore
  lost attribute values.
* class IV (``DROP_TABLE``, ``MERGE_TABLE``): whole tables vanish or fuse;
  provenance re-assigns rows to their origins.

``COPY_COLUMN`` and ``MOVE_COLUMN`` read a partner table through a join
condition; ``COPY_COLUMN`` keeps every receiver row only when each has at
least one join partner, which is a documented precondition of the operator
(foreign-key style joins).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .analysis import InverseType
from .chase import chase, matched_source_ids
from .errors import ValidationError
from .functions import FunctionRegistry, default_registry
from .model import Instance, RelationSchema, Schema, const
from .provenance import SideTableSpec
from .tgds import (
    Atom,
    Comparison,
    FunctionTerm,
    SchemaMapping,
    StTgd,
    Term,
    Variable,
    variable_names,
)

COPY_TABLE = "COPY_TABLE"
CREATE_TABLE = "CREATE_TABLE"
DECOMPOSE_TABLE = "DECOMPOSE_TABLE"
DROP_TABLE = "DROP_TABLE"
JOIN_TABLE = "JOIN_TABLE"
MERGE_TABLE = "MERGE_TABLE"
PARTITION_TABLE = "PARTITION_TABLE"
RENAME_TABLE = "RENAME_TABLE"
ADD_COLUMN = "ADD_COLUMN"
COPY_COLUMN = "COPY_COLUMN"
DROP_COLUMN = "DROP_COLUMN"
MERGE_COLUMN = "MERGE_COLUMN"
MOVE_COLUMN = "MOVE_COLUMN"
RENAME_COLUMN = "RENAME_COLUMN"
SPLIT_COLUMN = "SPLIT_COLUMN"
NOP = "NOP"

ALL_KINDS = (
    COPY_TABLE, CREATE_TABLE, DECOMPOSE_TABLE, DROP_TABLE, JOIN_TABLE,
    MERGE_TABLE, PARTITION_TABLE, RENAME_TABLE, ADD_COLUMN, COPY_COLUMN,
    DROP_COLUMN, MERGE_COLUMN, MOVE_COLUMN, RENAME_COLUMN, SPLIT_COLUMN, NOP,
)

SMO_CLASS = {
    COPY_TABLE: ("I",),
    CREATE_TABLE: ("I",),
    DECOMPOSE_TABLE: ("III",),
    DROP_TABLE: ("IV",),
    JOIN_TABLE: ("II",),
    MERGE_TABLE: ("IV",),
    PARTITION_TABLE: ("I",),
    RENAME_TABLE: ("I",),
    ADD_COLUMN: ("I",),
    COPY_COLUMN: ("I",),
    DROP_COLUMN: ("III",),
    MERGE_COLUMN: ("III",),
    MOVE_COLUMN: ("II", "III"),
    RENAME_COLUMN: ("I",),
    SPLIT_COLUMN: ("III",),
    NOP: ("I",),
}

CLASS_I = frozenset(k for k, c in SMO_CLASS.items() if c == ("I",))

INVERSE_SMO = {
    COPY_TABLE: ("DROP_TABLE", "MERGE_TABLE"),
    CREATE_TABLE: ("DROP_TABLE",),
    DECOMPOSE_TABLE: ("ADD_COLUMN", "JOIN_TABLE"),
    DROP_TABLE: ("CREATE_TABLE",),
    JOIN_TABLE: ("DECOMPOSE_TABLE",),
    MERGE_TABLE: ("PARTITION_TABLE",),
    PARTITION_TABLE: ("MERGE_TABLE",),
    RENAME_TABLE: ("RENAME_TABLE",),
    ADD_COLUMN: ("DROP_COLUMN",),
    COPY_COLUMN: ("DROP_COLUMN",),
    DROP_COLUMN: ("ADD_COLUMN",),
    MERGE_COLUMN: ("SPLIT_COLUMN",),
    MOVE_COLUMN: ("MOVE_COLUMN",),
    RENAME_COLUMN: ("RENAME_COLUMN",),
    SPLIT_COLUMN: ("MERGE_COLUMN",),
    NOP: ("NOP",),
}

DESCRIPTIONS = {
    COPY_TABLE: "duplicate a table",
    CREATE_TABLE: "add a new, empty table",
    DECOMPOSE_TABLE: "project a table onto two overlapping parts",
    DROP_TABLE: "remove a table",
    JOIN_TABLE: "fuse two tables along a join condition",
    MERGE_TABLE: "union two tables of equal shape into one",
    PARTITION_TABLE: "split a table in two by a row condition",
    RENAME_TABLE: "change a table name",
    ADD_COLUMN: "append a column filled by a constant, a function, or nulls",
    COPY_COLUMN: "pull a column in from a partner table via a join",
    DROP_COLUMN: "remove a column",
    MERGE_COLUMN: "replace two columns by a function of both",
    MOVE_COLUMN: "like COPY_COLUMN, but the partner table loses the column",
    RENAME_COLUMN: "change a column name",
    SPLIT_COLUMN: "replace one column by two functions of it",
    NOP: "do nothing",
}

_TWO_VARIANT_KINDS = frozenset(
    {COPY_TABLE, DECOMPOSE_TABLE, ADD_COLUMN, COPY_COLUMN}
)

# Parameters naming one relation, column or function, and those naming several.
_NAME_PARAMS = frozenset({
    "as", "column", "copy", "function", "kept", "left", "left_column",
    "recombine", "relation", "right", "right_column", "source", "table",
    "target", "target_column", "to",
})
_NAME_LIST_PARAMS = frozenset({
    "attributes", "columns", "functions", "target_columns", "targets",
})
# Parameters holding objects: the fields inside that name one thing, and
# those that name several.  ``parts`` is a list of such objects, and
# ``filler`` may also be the string "null".
_OBJECT_PARAMS = {
    "condition": (("attribute", "attribute2", "op"), ()),
    "join": (("column", "source_column"), ()),
    "filler": (("function",), ("args",)),
    "parts": (("name",), ("attributes",)),
}


def _is_name_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


def _check_object_param(kind: str, key: str, value) -> None:
    names, name_lists = _OBJECT_PARAMS[key]
    if key == "filler" and value == "null":
        return
    objs = value if key == "parts" and isinstance(value, (list, tuple)) else [value]
    for obj in objs:
        if not isinstance(obj, Mapping):
            raise ValidationError(
                f"{kind} parameter {key!r} must hold objects, got {obj!r}")
        for field_name in names:
            if field_name in obj and not isinstance(obj[field_name], str):
                raise ValidationError(
                    f"{kind} parameter {key!r}: {field_name!r} must be a name, "
                    f"got {obj[field_name]!r}")
        for field_name in name_lists:
            if field_name in obj and not _is_name_list(obj[field_name]):
                raise ValidationError(
                    f"{kind} parameter {key!r}: {field_name!r} must be a list "
                    f"of names, got {obj[field_name]!r}")


@dataclass(frozen=True)
class SmoSpec:
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    variant: int = 1

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValidationError(f"unknown operator kind {self.kind!r}")
        if self.variant not in (1, 2):
            raise ValidationError(f"variant must be 1 or 2, got {self.variant!r}")
        if self.variant == 2 and self.kind not in _TWO_VARIANT_KINDS:
            raise ValidationError(
                f"{self.kind} has a single formalization; variant 2 is only "
                f"defined for {sorted(_TWO_VARIANT_KINDS)}"
            )
        for key, value in self.params.items():
            if key in _NAME_PARAMS and not isinstance(value, str):
                raise ValidationError(
                    f"{self.kind} parameter {key!r} must be a name, got {value!r}")
            if key in _NAME_LIST_PARAMS and not _is_name_list(value):
                raise ValidationError(
                    f"{self.kind} parameter {key!r} must be a list of names, "
                    f"got {value!r}")
            if key in _OBJECT_PARAMS:
                _check_object_param(self.kind, key, value)

    def param(self, key: str, default=None, required: bool = True):
        if key in self.params:
            return self.params[key]
        if default is not None or not required:
            return default
        raise ValidationError(f"{self.kind} needs parameter {key!r}")

    @property
    def classes(self) -> tuple[str, ...]:
        return SMO_CLASS[self.kind]


def smo_to_json(smo: SmoSpec) -> dict:
    out: dict = {"kind": smo.kind}
    out.update(smo.params)
    out["variant"] = smo.variant
    return out


def smo_from_json(obj) -> SmoSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"script step must be an object with 'kind': {obj!r}")
    params = {k: v for k, v in obj.items() if k not in ("kind", "variant")}
    try:
        variant = int(obj.get("variant", 1))
    except (TypeError, ValueError):
        raise ValidationError(
            f"variant must be 1 or 2, got {obj['variant']!r}") from None
    return SmoSpec(obj["kind"], params, variant)


def script_to_json(script: Sequence[SmoSpec]) -> dict:
    return {"steps": [smo_to_json(s) for s in script]}


def script_from_json(obj) -> list[SmoSpec]:
    if not isinstance(obj, dict) or not isinstance(obj.get("steps"), list):
        raise ValidationError("script JSON must be an object with a 'steps' list")
    return [smo_from_json(step) for step in obj["steps"]]


# ---------------------------------------------------------------------------
# compile helpers


def _attr_vars(rel: RelationSchema, offset: int = 0) -> dict[str, Variable]:
    names = variable_names(offset + rel.arity)[offset:]
    return {attr: Variable(v) for attr, v in zip(rel.attributes, names)}


def _identity_tgd(rel: RelationSchema, target_name: str | None = None) -> StTgd:
    vars_ = [Variable(v) for v in variable_names(rel.arity)]
    head_rel = target_name or rel.name
    return StTgd(
        body=(Atom(rel.name, tuple(vars_)),),
        head=(Atom(head_rel, tuple(vars_)),),
    )


def _identities(source: Schema, except_for: Sequence[str]) -> list[StTgd]:
    skip = set(except_for)
    return [
        _identity_tgd(rel)
        for rel in source.relations
        if rel.name not in skip
    ]


def _require_new_relation(schema: Schema, name: str) -> None:
    if schema.has(name):
        raise ValidationError(f"relation {name!r} already exists in the schema")


def _condition_term(schema_rel: RelationSchema, varmap: dict[str, Variable],
                    cond: Mapping[str, object]) -> tuple[Term, str, Term]:
    attr = cond.get("attribute")
    if attr not in schema_rel.attributes:
        raise ValidationError(
            f"condition attribute {attr!r} is not in {schema_rel.name}"
        )
    op = cond.get("op")
    if op not in ("<", "<=", "=", ">=", ">"):
        raise ValidationError(f"condition operator must be one of < <= = >= >, got {op!r}")
    left: Term = varmap[attr]
    if "value" in cond:
        right: Term = const(str(cond["value"]))
    elif "attribute2" in cond:
        attr2 = cond["attribute2"]
        if attr2 not in schema_rel.attributes:
            raise ValidationError(
                f"condition attribute {attr2!r} is not in {schema_rel.name}"
            )
        right = varmap[attr2]
    else:
        raise ValidationError("condition needs 'value' or 'attribute2'")
    return left, op, right


_COMPLEMENT = {"=": ("<", ">"), "<": (">=",), "<=": (">",), ">": ("<=",), ">=": ("<",)}


# ---------------------------------------------------------------------------
# forward compilation


def compile_forward(smo: SmoSpec, source: Schema) -> SchemaMapping:
    """Compile an operator to its forward schema mapping over ``source``.

    Relations the operator leaves alone are carried by identity dependencies.
    """
    builder = _FORWARD[smo.kind]
    return builder(smo, source)


def _forward_copy_table(smo: SmoSpec, source: Schema) -> SchemaMapping:
    rel = source.relation(smo.param("table"))
    copy_name = smo.param("copy")
    kept_name = smo.param("kept", default=rel.name)
    _require_new_relation(source, copy_name)
    if kept_name != rel.name:
        _require_new_relation(source, kept_name)
    target = source.replacing(
        drop=[rel.name],
        add=[RelationSchema(kept_name, rel.attributes),
             RelationSchema(copy_name, rel.attributes)],
    )
    vars_ = tuple(Variable(v) for v in variable_names(rel.arity))
    body = (Atom(rel.name, vars_),)
    if smo.variant == 1:
        tgds = [StTgd(body, (Atom(kept_name, vars_), Atom(copy_name, vars_)))]
    else:
        tgds = [StTgd(body, (Atom(kept_name, vars_),)),
                StTgd(body, (Atom(copy_name, vars_),))]
    tgds += _identities(source, [rel.name])
    return SchemaMapping(source, target, tuple(tgds))


def _forward_create_table(smo: SmoSpec, source: Schema) -> SchemaMapping:
    name = smo.param("table")
    attributes = tuple(smo.param("attributes"))
    _require_new_relation(source, name)
    target = source.replacing(add=[RelationSchema(name, attributes)])
    return SchemaMapping(source, target, tuple(_identities(source, [])))


def _forward_decompose(smo: SmoSpec, source: Schema) -> SchemaMapping:
    rel = source.relation(smo.param("table"))
    parts = smo.param("parts")
    if not (isinstance(parts, (list, tuple)) and len(parts) == 2):
        raise ValidationError("DECOMPOSE_TABLE needs exactly two 'parts'")
    part_schemas = []
    for part in parts:
        if not (isinstance(part, Mapping) and "name" in part
                and "attributes" in part):
            raise ValidationError(
                f"a decomposition part needs 'name' and 'attributes': {part!r}"
            )
        name, attrs = part["name"], tuple(part["attributes"])
        if name != rel.name:
            _require_new_relation(source, name)
        for a in attrs:
            rel.position(a)
        if not attrs:
            raise ValidationError("a decomposition part needs at least one attribute")
        part_schemas.append(RelationSchema(name, attrs))
    p1, p2 = part_schemas
    if p1.name == p2.name:
        raise ValidationError("decomposition parts need distinct names")
    if set(p1.attributes) | set(p2.attributes) != set(rel.attributes):
        raise ValidationError(
            "decomposition parts must cover every attribute of the table"
        )
    target = source.replacing(drop=[rel.name], add=part_schemas)
    varmap = _attr_vars(rel)
    body = (Atom(rel.name, tuple(varmap[a] for a in rel.attributes)),)
    heads = [Atom(p.name, tuple(varmap[a] for a in p.attributes)) for p in (p1, p2)]
    if smo.variant == 1:
        tgds = [StTgd(body, (heads[0],)), StTgd(body, (heads[1],))]
    else:
        tgds = [StTgd(body, tuple(heads))]
    tgds += _identities(source, [rel.name])
    return SchemaMapping(source, target, tuple(tgds))


def _forward_drop_table(smo: SmoSpec, source: Schema) -> SchemaMapping:
    rel = source.relation(smo.param("table"))
    target = source.replacing(drop=[rel.name])
    return SchemaMapping(source, target, tuple(_identities(source, [rel.name])))


def _forward_join(smo: SmoSpec, source: Schema) -> SchemaMapping:
    left = source.relation(smo.param("left"))
    right = source.relation(smo.param("right"))
    if left.name == right.name:
        raise ValidationError("JOIN_TABLE needs two distinct tables")
    lcol, rcol = smo.param("left_column"), smo.param("right_column")
    lpos, rpos = left.position(lcol), right.position(rcol)
    target_name = smo.param("target")
    rest_right = tuple(a for a in right.attributes if a != rcol)
    attrs = left.attributes + rest_right
    if len(set(attrs)) != len(attrs):
        raise ValidationError(
            f"joined attributes collide: {attrs}; rename columns first"
        )
    if target_name not in (left.name, right.name):
        _require_new_relation(source, target_name)
    target = source.replacing(
        drop=[left.name, right.name],
        add=[RelationSchema(target_name, attrs)],
    )
    names = variable_names(left.arity + right.arity)
    lv = [Variable(v) for v in names[: left.arity]]
    rv = [Variable(v) for v in names[left.arity:]]
    head_terms = tuple(lv) + tuple(
        rv[right.position(a)] for a in right.attributes if a != rcol
    )
    tgd = StTgd(
        body=(Atom(left.name, tuple(lv)), Atom(right.name, tuple(rv))),
        head=(Atom(target_name, head_terms),),
        conditions=(Comparison(lv[lpos], "=", rv[rpos]),),
    )
    tgds = [tgd] + _identities(source, [left.name, right.name])
    return SchemaMapping(source, target, tuple(tgds))


def _forward_merge_table(smo: SmoSpec, source: Schema) -> SchemaMapping:
    left = source.relation(smo.param("left"))
    right = source.relation(smo.param("right"))
    if left.attributes != right.attributes:
        raise ValidationError(
            "MERGE_TABLE needs tables with identical attribute lists"
        )
    target_name = smo.param("target")
    if target_name not in (left.name, right.name):
        _require_new_relation(source, target_name)
    target = source.replacing(
        drop=[left.name, right.name],
        add=[RelationSchema(target_name, left.attributes)],
    )
    vars_ = tuple(Variable(v) for v in variable_names(left.arity))
    tgds = [
        StTgd((Atom(left.name, vars_),), (Atom(target_name, vars_),)),
        StTgd((Atom(right.name, vars_),), (Atom(target_name, vars_),)),
    ] + _identities(source, [left.name, right.name])
    return SchemaMapping(source, target, tuple(tgds))


def _forward_partition(smo: SmoSpec, source: Schema) -> SchemaMapping:
    rel = source.relation(smo.param("table"))
    targets = smo.param("targets")
    if not (isinstance(targets, (list, tuple)) and len(targets) == 2):
        raise ValidationError("PARTITION_TABLE needs exactly two 'targets'")
    t1, t2 = targets
    for t in targets:
        if t != rel.name:
            _require_new_relation(source, t)
    if t1 == t2:
        raise ValidationError("partition targets need distinct names")
    target = source.replacing(
        drop=[rel.name],
        add=[RelationSchema(t1, rel.attributes), RelationSchema(t2, rel.attributes)],
    )
    varmap = _attr_vars(rel)
    vars_ = tuple(varmap[a] for a in rel.attributes)
    left, op, right = _condition_term(rel, varmap, smo.param("condition"))
    body = (Atom(rel.name, vars_),)
    tgds = [StTgd(body, (Atom(t1, vars_),), conditions=(Comparison(left, op, right),))]
    for comp_op in _COMPLEMENT[op]:
        tgds.append(
            StTgd(body, (Atom(t2, vars_),),
                  conditions=(Comparison(left, comp_op, right),))
        )
    tgds += _identities(source, [rel.name])
    return SchemaMapping(source, target, tuple(tgds))


def _forward_rename_table(smo: SmoSpec, source: Schema) -> SchemaMapping:
    rel = source.relation(smo.param("table"))
    new_name = smo.param("to")
    if new_name != rel.name:
        _require_new_relation(source, new_name)
    target = source.replacing(
        drop=[rel.name], add=[RelationSchema(new_name, rel.attributes)]
    )
    tgds = [_identity_tgd(rel, target_name=new_name)] + _identities(source, [rel.name])
    return SchemaMapping(source, target, tuple(tgds))


def _forward_add_column(smo: SmoSpec, source: Schema) -> SchemaMapping:
    rel = source.relation(smo.param("relation"))
    column = smo.param("column")
    if column in rel.attributes:
        raise ValidationError(f"column {column!r} already exists in {rel.name}")
    filler = smo.param("filler")
    target = source.replacing(
        RelationSchema(rel.name, rel.attributes + (column,))
    )
    varmap = _attr_vars(rel)
    vars_ = tuple(varmap[a] for a in rel.attributes)
    existential: frozenset[str] = frozenset()
    if filler == "null":
        new_term: Term = Variable("_n")
        existential = frozenset({"_n"})
    elif isinstance(filler, Mapping) and "const" in filler:
        new_term = const(str(filler["const"]))
    elif isinstance(filler, Mapping) and "function" in filler:
        for a in filler.get("args", ()):
            if a not in varmap:
                raise ValidationError(
                    f"filler argument {a!r} is not a column of {rel.name}"
                )
        args = tuple(varmap[a] for a in filler.get("args", ()))
        new_term = FunctionTerm(filler["function"], args)
    else:
        raise ValidationError(
            "ADD_COLUMN filler must be \"null\", {\"const\": ...} or "
            "{\"function\": ..., \"args\": [...]}"
        )
    tgd = StTgd(
        body=(Atom(rel.name, vars_),),
        head=(Atom(rel.name, vars_ + (new_term,)),),
        existential_vars=existential,
    )
    tgds = [tgd] + _identities(source, [rel.name])
    return SchemaMapping(source, target, tuple(tgds))


def _copy_move_join(smo: SmoSpec, source: Schema, explicit_equality: bool):
    receiver = source.relation(smo.param("relation"))
    partner = source.relation(smo.param("source"))
    if receiver.name == partner.name:
        raise ValidationError("receiver and partner table must differ")
    join = smo.param("join")
    if not (isinstance(join, Mapping) and "column" in join
            and "source_column" in join):
        raise ValidationError(
            "the join parameter needs 'column' and 'source_column'"
        )
    rcol = join["column"]
    pcol = join["source_column"]
    receiver.position(rcol)
    partner.position(pcol)
    moved = smo.param("column")
    partner.position(moved)
    if moved == pcol:
        raise ValidationError("the moved column cannot be the join column")
    new_name = smo.param("as", default=moved)
    if new_name in receiver.attributes:
        raise ValidationError(f"column {new_name!r} already exists in {receiver.name}")
    names = variable_names(receiver.arity + partner.arity)
    rv = {a: Variable(v) for a, v in zip(receiver.attributes, names)}
    pv = {a: Variable(v) for a, v in zip(partner.attributes, names[receiver.arity:])}
    conditions: tuple[Comparison, ...] = ()
    if explicit_equality:
        conditions = (Comparison(rv[rcol], "=", pv[pcol]),)
    else:
        pv[pcol] = rv[rcol]
    body = (
        Atom(receiver.name, tuple(rv[a] for a in receiver.attributes)),
        Atom(partner.name, tuple(pv[a] for a in partner.attributes)),
    )
    head = Atom(
        receiver.name,
        tuple(rv[a] for a in receiver.attributes) + (pv[moved],),
    )
    tgd = StTgd(body, (head,), conditions=conditions)
    return receiver, partner, moved, new_name, tgd


def _forward_copy_column(smo: SmoSpec, source: Schema) -> SchemaMapping:
    receiver, partner, moved, new_name, tgd = _copy_move_join(
        smo, source, explicit_equality=(smo.variant == 2)
    )
    target = source.replacing(
        RelationSchema(receiver.name, receiver.attributes + (new_name,))
    )
    tgds = [tgd] + _identities(source, [receiver.name])
    return SchemaMapping(source, target, tuple(tgds))


def _forward_move_column(smo: SmoSpec, source: Schema) -> SchemaMapping:
    receiver, partner, moved, new_name, tgd = _copy_move_join(
        smo, source, explicit_equality=False
    )
    reduced = tuple(a for a in partner.attributes if a != moved)
    if not reduced:
        raise ValidationError("cannot move the only column of a table")
    target = source.replacing(
        RelationSchema(receiver.name, receiver.attributes + (new_name,)),
        RelationSchema(partner.name, reduced),
    )
    pm = _attr_vars(partner)
    projection = StTgd(
        body=(Atom(partner.name, tuple(pm[a] for a in partner.attributes)),),
        head=(Atom(partner.name, tuple(pm[a] for a in reduced)),),
    )
    tgds = [tgd, projection] + _identities(source, [receiver.name, partner.name])
    return SchemaMapping(source, target, tuple(tgds))


def _forward_drop_column(smo: SmoSpec, source: Schema) -> SchemaMapping:
    rel = source.relation(smo.param("relation"))
    column = smo.param("column")
    rel.position(column)
    kept = tuple(a for a in rel.attributes if a != column)
    if not kept:
        raise ValidationError("cannot drop the only column of a table")
    target = source.replacing(RelationSchema(rel.name, kept))
    varmap = _attr_vars(rel)
    tgd = StTgd(
        body=(Atom(rel.name, tuple(varmap[a] for a in rel.attributes)),),
        head=(Atom(rel.name, tuple(varmap[a] for a in kept)),),
    )
    tgds = [tgd] + _identities(source, [rel.name])
    return SchemaMapping(source, target, tuple(tgds))


def _merged_attrs(rel: RelationSchema, columns: Sequence[str],
                  target_column: str) -> tuple[str, ...]:
    if len(columns) != 2:
        raise ValidationError("MERGE_COLUMN merges exactly two columns")
    c1, c2 = columns
    spot = min(rel.position(c1), rel.position(c2))
    out: list[str] = []
    for i, a in enumerate(rel.attributes):
        if i == spot:
            out.append(target_column)
        if a not in (c1, c2):
            out.append(a)
    if len(set(out)) != len(out):
        raise ValidationError(f"merged column name {target_column!r} collides")
    return tuple(out)


def _forward_merge_column(smo: SmoSpec, source: Schema) -> SchemaMapping:
    rel = source.relation(smo.param("relation"))
    columns = smo.param("columns")
    target_column = smo.param("target_column")
    function = smo.param("function")
    target_name = smo.param("target", default=rel.name)
    if target_name != rel.name:
        _require_new_relation(source, target_name)
    attrs = _merged_attrs(rel, columns, target_column)
    target = source.replacing(
        drop=[rel.name], add=[RelationSchema(target_name, attrs)]
    )
    varmap = _attr_vars(rel)
    c1, c2 = columns
    head_terms: list[Term] = []
    for a in attrs:
        if a == target_column:
            head_terms.append(FunctionTerm(function, (varmap[c1], varmap[c2])))
        else:
            head_terms.append(varmap[a])
    tgd = StTgd(
        body=(Atom(rel.name, tuple(varmap[a] for a in rel.attributes)),),
        head=(Atom(target_name, tuple(head_terms)),),
    )
    tgds = [tgd] + _identities(source, [rel.name])
    return SchemaMapping(source, target, tuple(tgds))


def _forward_rename_column(smo: SmoSpec, source: Schema) -> SchemaMapping:
    rel = source.relation(smo.param("relation"))
    column = smo.param("column")
    new_name = smo.param("to")
    rel.position(column)
    if new_name in rel.attributes and new_name != column:
        raise ValidationError(f"column {new_name!r} already exists in {rel.name}")
    attrs = tuple(new_name if a == column else a for a in rel.attributes)
    target = source.replacing(RelationSchema(rel.name, attrs))
    tgds = [_identity_tgd(rel)] + _identities(source, [rel.name])
    return SchemaMapping(source, target, tuple(tgds))


def _split_attrs(rel: RelationSchema, column: str,
                 new_columns: Sequence[str]) -> tuple[str, ...]:
    if len(new_columns) != 2:
        raise ValidationError("SPLIT_COLUMN produces exactly two columns")
    pos = rel.position(column)
    out = list(rel.attributes[:pos]) + list(new_columns) + list(
        rel.attributes[pos + 1:]
    )
    if len(set(out)) != len(out):
        raise ValidationError(f"split column names {new_columns} collide")
    return tuple(out)


def _forward_split_column(smo: SmoSpec, source: Schema) -> SchemaMapping:
    rel = source.relation(smo.param("relation"))
    column = smo.param("column")
    new_columns = smo.param("target_columns")
    functions = smo.param("functions")
    if not (isinstance(functions, (list, tuple)) and len(functions) == 2):
        raise ValidationError("SPLIT_COLUMN needs two 'functions'")
    target_name = smo.param("target", default=rel.name)
    if target_name != rel.name:
        _require_new_relation(source, target_name)
    attrs = _split_attrs(rel, column, new_columns)
    target = source.replacing(
        drop=[rel.name], add=[RelationSchema(target_name, attrs)]
    )
    varmap = _attr_vars(rel)
    head_terms: list[Term] = []
    for a in attrs:
        if a == new_columns[0]:
            head_terms.append(FunctionTerm(functions[0], (varmap[column],)))
        elif a == new_columns[1]:
            head_terms.append(FunctionTerm(functions[1], (varmap[column],)))
        else:
            head_terms.append(varmap[a])
    tgd = StTgd(
        body=(Atom(rel.name, tuple(varmap[a] for a in rel.attributes)),),
        head=(Atom(target_name, tuple(head_terms)),),
    )
    tgds = [tgd] + _identities(source, [rel.name])
    return SchemaMapping(source, target, tuple(tgds))


def _forward_nop(smo: SmoSpec, source: Schema) -> SchemaMapping:
    return SchemaMapping(source, source, tuple(_identities(source, [])))


_FORWARD = {
    COPY_TABLE: _forward_copy_table,
    CREATE_TABLE: _forward_create_table,
    DECOMPOSE_TABLE: _forward_decompose,
    DROP_TABLE: _forward_drop_table,
    JOIN_TABLE: _forward_join,
    MERGE_TABLE: _forward_merge_table,
    PARTITION_TABLE: _forward_partition,
    RENAME_TABLE: _forward_rename_table,
    ADD_COLUMN: _forward_add_column,
    COPY_COLUMN: _forward_copy_column,
    DROP_COLUMN: _forward_drop_column,
    MERGE_COLUMN: _forward_merge_column,
    MOVE_COLUMN: _forward_move_column,
    RENAME_COLUMN: _forward_rename_column,
    SPLIT_COLUMN: _forward_split_column,
    NOP: _forward_nop,
}

# ---------------------------------------------------------------------------
# side tables


def side_table_specs(smo: SmoSpec, source: Schema) -> tuple[SideTableSpec, ...]:
    """Side tables the operator needs for its strongest inverse."""
    if smo.kind == JOIN_TABLE:
        left = source.relation(smo.param("left"))
        right = source.relation(smo.param("right"))
        return (
            SideTableSpec(f"{left.name}_dangling", left.name, "dangling",
                          left.attributes),
            SideTableSpec(f"{right.name}_dangling", right.name, "dangling",
                          right.attributes),
        )
    if smo.kind == MERGE_COLUMN:
        rel = source.relation(smo.param("relation"))
        second = smo.param("columns")[1]
        return (
            SideTableSpec(f"{rel.name}_{second}", rel.name, "projection",
                          (second,)),
        )
    if smo.kind == DROP_COLUMN:
        rel = source.relation(smo.param("relation"))
        column = smo.param("column")
        return (
            SideTableSpec(f"{rel.name}_{column}", rel.name, "projection",
                          (column,)),
        )
    if smo.kind == MOVE_COLUMN:
        receiver = source.relation(smo.param("relation"))
        partner = source.relation(smo.param("source"))
        moved = smo.param("column")
        return (
            SideTableSpec(f"{receiver.name}_dangling", receiver.name,
                          "dangling", receiver.attributes),
            SideTableSpec(f"{partner.name}_{moved}", partner.name,
                          "projection", (moved,)),
        )
    if smo.kind == DROP_TABLE:
        rel = source.relation(smo.param("table"))
        return (
            SideTableSpec(f"{rel.name}_dropped", rel.name, "projection", ()),
        )
    return ()


# ---------------------------------------------------------------------------
# inverse plans


@dataclass(frozen=True)
class SideLookupRule:
    """A reconstruction dependency whose existential variables are bound from
    a side table row selected by the witness ids of the matched fact."""

    tgd: StTgd
    table: str
    bindings: Mapping[str, str]  # existential variable -> side table attribute


@dataclass(frozen=True)
class RestrictByOrigin:
    """Post-step filtering reconstructed facts by their source origins.

    ``per_relation``: keep a fact of relation X when some witness of its
    origin lies entirely inside X (union/merge inversion).
    ``common_origin``: keep a fact when the witnesses of all contributing
    facts share a source id, once per shared id (join-of-projections
    inversion).
    """

    kind: str
    relations: tuple[str, ...]


@dataclass(frozen=True)
class AppendSideRows:
    table: str
    relation: str


@dataclass(frozen=True)
class InversePlan:
    smo: SmoSpec
    mapping: SchemaMapping
    lookups: tuple[SideLookupRule, ...] = ()
    expand_before: bool = False
    restrict: RestrictByOrigin | None = None
    appends: tuple[AppendSideRows, ...] = ()
    required_provenance: str = "none"
    required_side_tables: tuple[SideTableSpec, ...] = ()
    requires_inverse_function: bool = False
    flagged_non_invertible: bool = False
    notes: tuple[str, ...] = ()

    def post_steps(self) -> tuple[str, ...]:
        steps = []
        if self.expand_before:
            steps.append("expand_duplicates")
        if self.lookups:
            steps.append("side_table_lookup")
        if self.restrict is not None:
            steps.append("restrict_by_origin")
        if self.appends:
            steps.append("append_side_table_rows")
        return tuple(steps)


def inverse_function_ready(smo: SmoSpec, functions: FunctionRegistry) -> bool:
    """Whether the registry carries what the operator's exact inverse needs."""
    if smo.kind == MERGE_COLUMN:
        name = smo.param("function")
        return functions.has(name) and functions.has_inverse(name)
    if smo.kind == SPLIT_COLUMN:
        recombine = smo.param("recombine", required=False)
        return bool(recombine) and functions.has(recombine)
    return False


def compile_inverse(
    smo: SmoSpec,
    source: Schema,
    provenance_level: str = "none",
    side_tables_available: bool = False,
    inverse_function_available: bool = False,
) -> InversePlan:
    """Strongest inverse plan the available resources permit.

    Always returns a plan; configurations that cannot promise reconstruction
    come back flagged rather than failing.
    """
    forward = compile_forward(smo, source)
    builder = _INVERSE[smo.kind]
    return builder(smo, source, forward, provenance_level,
                   side_tables_available, inverse_function_available)


def _inverse_identities(forward: SchemaMapping,
                        except_for: Sequence[str]) -> list[StTgd]:
    skip = set(except_for)
    out = []
    for rel in forward.target.relations:
        if rel.name in skip:
            continue
        if forward.source.has(rel.name) and (
            forward.source.relation(rel.name).arity == rel.arity
        ):
            out.append(_identity_tgd(rel))
    return out


def _plain_plan(smo, forward, tgds, **kw) -> InversePlan:
    mapping = SchemaMapping(forward.target, forward.source, tuple(tgds))
    return InversePlan(smo=smo, mapping=mapping, **kw)


def _inverse_copy_table(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("table"))
    copy_name = smo.param("copy")
    kept_name = smo.param("kept", default=rel.name)
    vars_ = tuple(Variable(v) for v in variable_names(rel.arity))
    head = (Atom(rel.name, vars_),)
    if smo.variant == 1:
        tgds = [StTgd((Atom(kept_name, vars_), Atom(copy_name, vars_)), head)]
    else:
        tgds = [StTgd((Atom(kept_name, vars_),), head),
                StTgd((Atom(copy_name, vars_),), head)]
    tgds += _inverse_identities(forward, [kept_name, copy_name])
    return _plain_plan(smo, forward, tgds)


def _inverse_create_table(smo, source, forward, level, side, invfn) -> InversePlan:
    name = smo.param("table")
    tgds = _inverse_identities(forward, [name])
    return _plain_plan(smo, forward, tgds)


def _inverse_decompose(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("table"))
    parts = smo.param("parts")
    p1 = RelationSchema(parts[0]["name"], tuple(parts[0]["attributes"]))
    p2 = RelationSchema(parts[1]["name"], tuple(parts[1]["attributes"]))
    varmap = _attr_vars(rel)
    tgd = StTgd(
        body=(Atom(p1.name, tuple(varmap[a] for a in p1.attributes)),
              Atom(p2.name, tuple(varmap[a] for a in p2.attributes))),
        head=(Atom(rel.name, tuple(varmap[a] for a in rel.attributes)),),
    )
    tgds = [tgd] + _inverse_identities(forward, [p1.name, p2.name])
    if level in ("why", "how"):
        return _plain_plan(
            smo, forward, tgds,
            restrict=RestrictByOrigin("common_origin", (rel.name,)),
            required_provenance="why",
            notes=("join restricted to part pairs sharing a source row",),
        )
    return _plain_plan(smo, forward, tgds)


def _inverse_drop_table(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("table"))
    tgds = _inverse_identities(forward, [rel.name])
    if side and level != "none":
        spec = side_table_specs(smo, source)[0]
        return _plain_plan(
            smo, forward, tgds,
            appends=(AppendSideRows(spec.name, rel.name),),
            required_provenance="where",
            required_side_tables=(spec,),
            notes=("dropped rows return as all-null placeholders, "
                   "one per recorded id",),
        )
    return _plain_plan(smo, forward, tgds)


def _inverse_join(smo, source, forward, level, side, invfn) -> InversePlan:
    left = source.relation(smo.param("left"))
    right = source.relation(smo.param("right"))
    lcol, rcol = smo.param("left_column"), smo.param("right_column")
    target_rel = forward.target.relation(smo.param("target"))
    tv = tuple(Variable(v) for v in variable_names(target_rel.arity))
    left_terms = tv[: left.arity]
    join_var = tv[left.position(lcol)]
    rest_right = [a for a in right.attributes if a != rcol]
    right_terms = tuple(
        join_var if a == rcol else tv[left.arity + rest_right.index(a)]
        for a in right.attributes
    )
    tgd = StTgd(
        body=(Atom(target_rel.name, tv),),
        head=(Atom(left.name, left_terms), Atom(right.name, right_terms)),
    )
    tgds = [tgd] + _inverse_identities(forward, [target_rel.name])
    if side and level != "none":
        specs = side_table_specs(smo, source)
        return _plain_plan(
            smo, forward, tgds,
            appends=tuple(AppendSideRows(s.name, s.relation) for s in specs),
            required_provenance="where",
            required_side_tables=specs,
            notes=("dangling rows restored from side tables",),
        )
    return _plain_plan(smo, forward, tgds)


def _inverse_merge_table(smo, source, forward, level, side, invfn) -> InversePlan:
    left = source.relation(smo.param("left"))
    right = source.relation(smo.param("right"))
    target_rel = forward.target.relation(smo.param("target"))
    vars_ = tuple(Variable(v) for v in variable_names(target_rel.arity))
    body = (Atom(target_rel.name, vars_),)
    tgds = [
        StTgd(body, (Atom(left.name, vars_),)),
        StTgd(body, (Atom(right.name, vars_),)),
    ] + _inverse_identities(forward, [target_rel.name])
    if level != "none":
        return _plain_plan(
            smo, forward, tgds,
            restrict=RestrictByOrigin("per_relation", (left.name, right.name)),
            required_provenance="where",
            notes=("rows kept only in the table their origins come from",),
        )
    return _plain_plan(smo, forward, tgds)


def _inverse_partition(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("table"))
    t1, t2 = smo.param("targets")
    vars_ = tuple(Variable(v) for v in variable_names(rel.arity))
    head = (Atom(rel.name, vars_),)
    tgds = [
        StTgd((Atom(t1, vars_),), head),
        StTgd((Atom(t2, vars_),), head),
    ] + _inverse_identities(forward, [t1, t2])
    return _plain_plan(smo, forward, tgds)


def _inverse_rename_table(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("table"))
    new_name = smo.param("to")
    renamed = forward.target.relation(new_name)
    tgds = [_identity_tgd(renamed, target_name=rel.name)]
    tgds += _inverse_identities(forward, [new_name])
    return _plain_plan(smo, forward, tgds)


def _existential_names(count: int) -> list[str]:
    letters = "DEFGHIJKLMNOPQRSTUVWXYZABC"
    out = []
    for i in range(count):
        suffix = i // 26
        out.append(letters[i % 26] + (str(suffix) if suffix else ""))
    return out


def _projection_inverse(rel_out: RelationSchema, rel_in: RelationSchema,
                        missing: Sequence[str]) -> StTgd:
    """Reconstruct ``rel_in`` rows from ``rel_out`` rows, filling the
    ``missing`` attributes with existential variables; every other attribute
    of ``rel_in`` must exist in ``rel_out``."""
    out_vars = _attr_vars(rel_out)
    names = iter(_existential_names(len(missing)))
    fills = {a: Variable(next(names)) for a in rel_in.attributes if a in missing}
    head_terms = tuple(
        fills[a] if a in missing else out_vars[a] for a in rel_in.attributes
    )
    body_terms = tuple(out_vars[a] for a in rel_out.attributes)
    return StTgd(
        body=(Atom(rel_out.name, body_terms),),
        head=(Atom(rel_in.name, head_terms),),
        existential_vars=frozenset(v.name for v in fills.values()),
    )


def _inverse_add_column(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("relation"))
    column = smo.param("column")
    widened = forward.target.relation(rel.name)
    varmap = _attr_vars(widened)
    tgd = StTgd(
        body=(Atom(rel.name, tuple(varmap[a] for a in widened.attributes)),),
        head=(Atom(rel.name, tuple(varmap[a] for a in rel.attributes)),),
    )
    tgds = [tgd] + _inverse_identities(forward, [rel.name])
    return _plain_plan(smo, forward, tgds)


def _inverse_copy_column(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("relation"))
    widened = forward.target.relation(rel.name)
    varmap = _attr_vars(widened)
    tgd = StTgd(
        body=(Atom(rel.name, tuple(varmap[a] for a in widened.attributes)),),
        head=(Atom(rel.name, tuple(varmap[a] for a in rel.attributes)),),
    )
    tgds = [tgd] + _inverse_identities(forward, [rel.name])
    return _plain_plan(smo, forward, tgds)


def _inverse_drop_column(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("relation"))
    column = smo.param("column")
    narrowed = forward.target.relation(rel.name)
    exist_tgd = _projection_inverse(narrowed, rel, [column])
    identities = _inverse_identities(forward, [rel.name])
    if level in ("why", "how") and side:
        spec = side_table_specs(smo, source)[0]
        varmap = _attr_vars(rel)
        head_terms = tuple(
            Variable("C") if a == column else varmap[a] for a in rel.attributes
        )
        body_terms = tuple(varmap[a] for a in rel.attributes if a != column)
        lookup = SideLookupRule(
            StTgd(body=(Atom(rel.name, body_terms),),
                  head=(Atom(rel.name, head_terms),),
                  existential_vars=frozenset({"C"})),
            table=spec.name,
            bindings={"C": column},
        )
        return _plain_plan(
            smo, forward, identities,
            lookups=(lookup,),
            expand_before=True,
            required_provenance="why",
            required_side_tables=(spec,),
            notes=("dropped values restored from the side table",),
        )
    plan_tgds = [exist_tgd] + identities
    if level in ("why", "how"):
        return _plain_plan(smo, forward, plan_tgds, expand_before=True,
                           required_provenance="why")
    return _plain_plan(smo, forward, plan_tgds)


def _inverse_merge_column(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("relation"))
    c1, c2 = smo.param("columns")
    target_column = smo.param("target_column")
    function = smo.param("function")
    merged = forward.target.relation(smo.param("target", default=rel.name))
    identities = _inverse_identities(forward, [merged.name])
    mv = _attr_vars(merged)
    if level in ("why", "how") and side and invfn:
        head_terms: list[Term] = []
        for a in rel.attributes:
            if a == c1:
                head_terms.append(
                    FunctionTerm(function, (mv[target_column], Variable("C")),
                                 inverse=True)
                )
            elif a == c2:
                head_terms.append(Variable("C"))
            else:
                head_terms.append(mv[a])
        lookup = SideLookupRule(
            StTgd(body=(Atom(merged.name,
                             tuple(mv[a] for a in merged.attributes)),),
                  head=(Atom(rel.name, tuple(head_terms)),),
                  existential_vars=frozenset({"C"})),
            table=side_table_specs(smo, source)[0].name,
            bindings={"C": c2},
        )
        return _plain_plan(
            smo, forward, identities,
            lookups=(lookup,),
            expand_before=True,
            required_provenance="why",
            required_side_tables=side_table_specs(smo, source),
            requires_inverse_function=True,
            notes=("merged values recomputed with the inverse function and "
                   "the side table",),
        )
    exist_tgd = _projection_inverse(merged, rel, [c1, c2])
    plan_tgds = [exist_tgd] + identities
    notes: tuple[str, ...] = ()
    if level in ("why", "how") and side and not invfn:
        notes = (f"downgraded: no inverse registered for {function!r}, "
                 f"merged values stay null",)
    if level in ("why", "how"):
        return _plain_plan(smo, forward, plan_tgds, expand_before=True,
                           required_provenance="why", notes=notes)
    return _plain_plan(smo, forward, plan_tgds, notes=notes)


def _inverse_move_column(smo, source, forward, level, side, invfn) -> InversePlan:
    receiver = source.relation(smo.param("relation"))
    partner = source.relation(smo.param("source"))
    moved = smo.param("column")
    new_name = smo.param("as", default=moved)
    widened = forward.target.relation(receiver.name)
    reduced = forward.target.relation(partner.name)
    wv = _attr_vars(widened)
    receiver_tgd = StTgd(
        body=(Atom(widened.name, tuple(wv[a] for a in widened.attributes)),),
        head=(Atom(receiver.name,
                   tuple(wv[a] for a in receiver.attributes)),),
    )
    identities = _inverse_identities(forward, [receiver.name, partner.name])
    if side and level in ("why", "how"):
        specs = side_table_specs(smo, source)
        pv = _attr_vars(partner)
        head_terms = tuple(
            Variable("C") if a == moved else pv[a] for a in partner.attributes
        )
        body_terms = tuple(pv[a] for a in partner.attributes if a != moved)
        lookup = SideLookupRule(
            StTgd(body=(Atom(partner.name, body_terms),),
                  head=(Atom(partner.name, head_terms),),
                  existential_vars=frozenset({"C"})),
            table=specs[1].name,
            bindings={"C": moved},
        )
        return _plain_plan(
            smo, forward, [receiver_tgd] + identities,
            lookups=(lookup,),
            expand_before=True,
            appends=(AppendSideRows(specs[0].name, receiver.name),),
            required_provenance="why",
            required_side_tables=specs,
            notes=("moved values restored from the side table; dangling "
                   "receiver rows appended",),
        )
    partner_tgd = _projection_inverse(reduced, partner, [moved])
    flagged = level == "none" and not side
    return _plain_plan(
        smo, forward, [receiver_tgd, partner_tgd] + identities,
        flagged_non_invertible=flagged,
        notes=("moved values cannot be recovered without side tables",),
    )


def _inverse_rename_column(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("relation"))
    renamed = forward.target.relation(rel.name)
    tgds = [_identity_tgd(renamed)] + _inverse_identities(forward, [rel.name])
    return _plain_plan(smo, forward, tgds)


def _inverse_split_column(smo, source, forward, level, side, invfn) -> InversePlan:
    rel = source.relation(smo.param("relation"))
    column = smo.param("column")
    b, c = smo.param("target_columns")
    recombine = smo.param("recombine", required=False)
    split_rel = forward.target.relation(smo.param("target", default=rel.name))
    identities = _inverse_identities(forward, [split_rel.name])
    sv = _attr_vars(split_rel)
    if invfn and recombine:
        head_terms = tuple(
            FunctionTerm(recombine, (sv[b], sv[c])) if a == column else sv[a]
            for a in rel.attributes
        )
        tgd = StTgd(
            body=(Atom(split_rel.name,
                       tuple(sv[a] for a in split_rel.attributes)),),
            head=(Atom(rel.name, head_terms),),
        )
        return _plain_plan(
            smo, forward, [tgd] + identities,
            requires_inverse_function=True,
            notes=("halves recombined with the registered function",),
        )
    exist_tgd = _projection_inverse(split_rel, rel, [column])
    plan_tgds = [exist_tgd] + identities
    if level in ("why", "how"):
        return _plain_plan(smo, forward, plan_tgds, expand_before=True,
                           required_provenance="why")
    return _plain_plan(smo, forward, plan_tgds)


def _inverse_nop(smo, source, forward, level, side, invfn) -> InversePlan:
    return _plain_plan(smo, forward, _inverse_identities(forward, []))


_INVERSE = {
    COPY_TABLE: _inverse_copy_table,
    CREATE_TABLE: _inverse_create_table,
    DECOMPOSE_TABLE: _inverse_decompose,
    DROP_TABLE: _inverse_drop_table,
    JOIN_TABLE: _inverse_join,
    MERGE_TABLE: _inverse_merge_table,
    PARTITION_TABLE: _inverse_partition,
    RENAME_TABLE: _inverse_rename_table,
    ADD_COLUMN: _inverse_add_column,
    COPY_COLUMN: _inverse_copy_column,
    DROP_COLUMN: _inverse_drop_column,
    MERGE_COLUMN: _inverse_merge_column,
    MOVE_COLUMN: _inverse_move_column,
    RENAME_COLUMN: _inverse_rename_column,
    SPLIT_COLUMN: _inverse_split_column,
    NOP: _inverse_nop,
}

# ---------------------------------------------------------------------------
# instance features and predicted types


@dataclass(frozen=True)
class InstanceFeatures:
    has_dangling: bool = False
    has_duplicates: bool = False


def instance_features(smo: SmoSpec, instance: Instance,
                      functions: FunctionRegistry | None = None) -> InstanceFeatures:
    """Operator-relevant facts about a concrete source instance: danglings
    (rows no trigger consumes) and duplicates (rows the operator's output
    collapses)."""
    functions = functions or default_registry()
    forward = compile_forward(smo, instance.schema)
    if smo.kind in (JOIN_TABLE, COPY_COLUMN, MOVE_COLUMN):
        if smo.kind == JOIN_TABLE:
            rels = (smo.param("left"), smo.param("right"))
        else:
            rels = (smo.param("relation"),)
        matched = matched_source_ids(instance, forward)
        dangling = any(
            f.id not in matched for r in rels for f in instance.facts(r)
        )
        return InstanceFeatures(has_dangling=dangling)
    if smo.kind in (MERGE_COLUMN, DROP_COLUMN, SPLIT_COLUMN):
        target_rel = {
            MERGE_COLUMN: smo.param("target", default=smo.param("relation")),
            DROP_COLUMN: smo.param("relation"),
            SPLIT_COLUMN: smo.param("target", default=smo.param("relation")),
        }[smo.kind]
        out, store = chase(instance, forward, "why", functions)
        dup = any(
            len(store.witnesses(f.id) or ()) > 1 for f in out.facts(target_rel)
        )
        return InstanceFeatures(has_duplicates=dup)
    if smo.kind == DECOMPOSE_TABLE:
        rel = instance.schema.relation(smo.param("table"))
        parts = smo.param("parts")
        shared = [a for a in parts[0]["attributes"] if a in parts[1]["attributes"]]
        positions = [rel.position(a) for a in shared]
        seen: set[tuple] = set()
        dup = False
        for fact in instance.facts(rel.name):
            key = tuple(fact.values[p] for p in positions)
            if key in seen:
                dup = True
                break
            seen.add(key)
        return InstanceFeatures(has_duplicates=dup)
    return InstanceFeatures()


def predicted_inverse_type(
    smo: SmoSpec,
    provenance_level: str = "none",
    side_tables_available: bool = False,
    inverse_function_available: bool = False,
    features: InstanceFeatures = InstanceFeatures(),
) -> InverseType:
    """Guaranteed lower bound on the classification a roundtrip achieves."""
    k = smo.kind
    expandable = provenance_level in ("why", "how")
    if k in CLASS_I:
        return InverseType.EXACT
    if k == JOIN_TABLE:
        if side_tables_available and provenance_level != "none":
            return InverseType.EXACT
        return InverseType.RELAXED if features.has_dangling else InverseType.EXACT
    if k == MERGE_TABLE:
        if provenance_level != "none":
            return InverseType.EXACT
        return InverseType.RESULT_EQUIVALENT
    if k == DROP_TABLE:
        if side_tables_available and provenance_level != "none":
            return InverseType.TP_RELAXED
        return InverseType.RELAXED
    if k == MOVE_COLUMN:
        if side_tables_available and expandable:
            return InverseType.EXACT
        return InverseType.NONE
    if k == DECOMPOSE_TABLE:
        if expandable:
            return InverseType.TP_RELAXED
        if features.has_duplicates:
            return InverseType.RESULT_EQUIVALENT
        return InverseType.EXACT
    if k == SPLIT_COLUMN:
        if inverse_function_available:
            return InverseType.EXACT
        if expandable:
            return InverseType.TP_RELAXED
        return (InverseType.RELAXED if features.has_duplicates
                else InverseType.TP_RELAXED)
    if k == MERGE_COLUMN:
        if expandable and side_tables_available and inverse_function_available:
            return InverseType.EXACT
        if expandable:
            return InverseType.TP_RELAXED
        return (InverseType.RELAXED if features.has_duplicates
                else InverseType.TP_RELAXED)
    if k == DROP_COLUMN:
        if expandable and side_tables_available:
            return InverseType.EXACT
        if expandable:
            return InverseType.TP_RELAXED
        return (InverseType.RELAXED if features.has_duplicates
                else InverseType.TP_RELAXED)
    raise ValidationError(f"unknown operator kind {k!r}")


# ---------------------------------------------------------------------------
# catalog display


_DEMO_SCHEMAS = {
    COPY_TABLE: (Schema.of(RelationSchema("R", ("a1", "a2", "a3"))),
                 {"table": "R", "copy": "V", "kept": "R'"}),
    CREATE_TABLE: (Schema.of(RelationSchema("R", ("a1", "a2"))),
                   {"table": "V", "attributes": ["b1", "b2"]}),
    DECOMPOSE_TABLE: (Schema.of(RelationSchema("R", ("a1", "a2", "a3"))),
                      {"table": "R",
                       "parts": [{"name": "R1", "attributes": ["a1", "a2"]},
                                 {"name": "R2", "attributes": ["a1", "a3"]}]}),
    DROP_TABLE: (Schema.of(RelationSchema("R", ("a1", "a2")),
                           RelationSchema("V", ("b1", "b2"))),
                 {"table": "R"}),
    JOIN_TABLE: (Schema.of(RelationSchema("R", ("id", "name")),
                           RelationSchema("V", ("name", "subject"))),
                 {"left": "R", "right": "V", "left_column": "name",
                  "right_column": "name", "target": "T"}),
    MERGE_TABLE: (Schema.of(RelationSchema("R", ("a1", "a2", "a3")),
                            RelationSchema("V", ("a1", "a2", "a3"))),
                  {"left": "R", "right": "V", "target": "T"}),
    PARTITION_TABLE: (Schema.of(RelationSchema("R", ("id", "name", "subject"))),
                      {"table": "R",
                       "condition": {"attribute": "subject", "op": "=",
                                     "value": "Math"},
                       "targets": ["T1", "T2"]}),
    RENAME_TABLE: (Schema.of(RelationSchema("R", ("a1", "a2"))),
                   {"table": "R", "to": "V"}),
    ADD_COLUMN: (Schema.of(RelationSchema("R", ("a1", "a2"))),
                 {"relation": "R", "column": "a3",
                  "filler": {"function": "concat_pipe", "args": ["a1", "a2"]}}),
    COPY_COLUMN: (Schema.of(RelationSchema("R", ("id", "name")),
                            RelationSchema("V", ("name", "subject"))),
                  {"relation": "R", "source": "V",
                   "join": {"column": "name", "source_column": "name"},
                   "column": "subject"}),
    DROP_COLUMN: (Schema.of(RelationSchema("R", ("a1", "a2", "a3"))),
                  {"relation": "R", "column": "a3"}),
    MERGE_COLUMN: (Schema.of(RelationSchema("R", ("name", "mod1", "mod2"))),
                   {"relation": "R", "columns": ["mod1", "mod2"],
                    "target_column": "sum", "function": "dec_add",
                    "target": "T"}),
    MOVE_COLUMN: (Schema.of(RelationSchema("R", ("id", "name")),
                            RelationSchema("V", ("name", "subject"))),
                  {"relation": "R", "source": "V",
                   "join": {"column": "name", "source_column": "name"},
                   "column": "subject"}),
    RENAME_COLUMN: (Schema.of(RelationSchema("R", ("a1", "a2"))),
                    {"relation": "R", "column": "a2", "to": "b2"}),
    SPLIT_COLUMN: (Schema.of(RelationSchema("R", ("name", "code"))),
                   {"relation": "R", "column": "code",
                    "target_columns": ["head", "tail"],
                    "functions": ["split_pipe_head", "split_pipe_tail"],
                    "recombine": "concat_pipe", "target": "T"}),
    NOP: (Schema.of(RelationSchema("R", ("a1", "a2"))), {}),
}


def catalog_entries() -> list[dict]:
    """One entry per operator: class, description, inverse operator names,
    and example forward/inverse dependencies over a small demo schema."""
    from .tgds import format_tgd

    entries = []
    for kind in ALL_KINDS:
        schema, params = _DEMO_SCHEMAS[kind]
        smo = SmoSpec(kind, params)
        forward = compile_forward(smo, schema)
        plan = compile_inverse(smo, schema, "how", True, True)
        entries.append({
            "kind": kind,
            "class": "/".join(SMO_CLASS[kind]),
            "description": DESCRIPTIONS[kind],
            "inverse": "/".join(INVERSE_SMO[kind]),
            "forward": [format_tgd(t) for t in forward.sigma],
            "inverse_tgds": [format_tgd(t) for t in plan.mapping.sigma]
                            + [format_tgd(r.tgd) for r in plan.lookups],
        })
    return entries
