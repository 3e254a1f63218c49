"""The schema-modification operator catalog.

Sixteen operators (fifteen plus NOP), one ``Operator`` record each in
``OPERATORS``.  A record holds everything the catalog knows about its
operator: its class, inverse operator names and description, its parameters
with their shapes and the defaults of the optional ones (``SmoSpec`` checks
every spec against them once), the builder of its forward source-to-target
dependencies, for half of the operators the builder of what its inverse
plan adds per available resource level, and the instance features its
plans' guarantees read.

Forward builders return only the operator's own dependencies.
``compile_forward`` carries every relation the operator leaves alone by an
identity dependency, so multi-step scripts chain.  An inverse plan's
dependencies are the forward mapping read backwards, identity dependencies
included: what the forward step projected away or computed becomes
existential and the parts of a decomposition are joined back, the
quasi-inverse of a mapping of full source-to-target dependencies (Fagin,
Kolaitis, Popa and Tan, TODS 2008).  An inverse builder states only what
reversal cannot say: post-steps, side-table lookups, ``SPLIT_COLUMN``'s
recombine dependency, and the inverse type the plan guarantees, a lower
bound on what the classifier will report.  It never states what the plan
needs: the provenance level, side tables and inverse function an
``InversePlan`` requires are derived from what it does.  An operator's side
tables, and whether a function registry carries its inverse functions, are
those of its strongest plan.

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
from functools import lru_cache
from itertools import count
from typing import Callable, Mapping, Sequence

from .analysis import InverseType, weakest
from .chase import chase, matched_source_ids
from .errors import ValidationError
from .functions import FunctionRegistry, default_registry
from .model import _DEC_RE, Instance, RelationSchema, Schema, const
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

# Parameter shapes.  An operator record maps each parameter to one of them.
NAME, NAMES, PAIR = "name", "list of names", "pair of names"
CONDITION, JOIN, FILLER, PARTS = "condition", "join", "filler", "parts"
# Shapes of object fields and list items; a constant is a string or a
# number (not a bool), read through its text, so a float must print in plain
# decimal notation.
_OP, _PART, _CONST = "operator", "part", "constant"
_OPS = ("<", "<=", "=", ">=", ">")

# Each object shape: the shape of every field it may hold, the fields it
# needs, and two fields of which it needs exactly one.  A filler may also be
# the string "null".
_FIELDS = {
    CONDITION: ({"attribute": NAME, "op": _OP, "value": _CONST, "attribute2": NAME},
                ("attribute", "op"), ("value", "attribute2")),
    JOIN: ({"column": NAME, "source_column": NAME}, ("column", "source_column"), ()),
    FILLER: ({"const": _CONST, "function": NAME, "args": NAMES}, (),
             ("const", "function")),
    _PART: ({"name": NAME, "attributes": NAMES}, ("name", "attributes"), ()),
}


def _check_object(where: str, obj, fields: Mapping[str, str],
                  needs: Sequence[str], noun: str = "field") -> None:
    """Raise unless ``obj`` is an object that holds every field of ``needs``
    and only fields of ``fields``, each of its shape there."""
    if not isinstance(obj, Mapping):
        raise ValidationError(f"{where} must hold objects, got {obj!r}")
    for f in obj:
        if f not in fields:
            raise ValidationError(
                f"{where} has no {noun} {f!r}; it takes {list(fields)}")
    for f in needs:
        if f not in obj:
            raise ValidationError(f"{where} needs {noun} {f!r}")
    for f, value in obj.items():
        _check_param(f"{where} {noun} {f!r}", fields[f], value)


def _check_param(where: str, shape: str, value) -> None:
    """Raise unless ``value`` has ``shape``; ``where`` names the value."""
    if shape == NAME and not isinstance(value, str):
        raise ValidationError(f"{where} must be a name, got {value!r}")
    if shape == _CONST and (isinstance(value, bool)
                            or not isinstance(value, (str, int, float))):
        raise ValidationError(f"{where} must be a string or a number, got {value!r}")
    if shape == _CONST and isinstance(value, float) and not _DEC_RE.match(str(value)):
        raise ValidationError(
            f"{where} is a number in exponent form or not finite, got {value!r}; "
            f"write it as a string, a number in plain decimal notation")
    if shape in (NAMES, PAIR) and not (isinstance(value, (list, tuple))
                                       and all(isinstance(v, str) for v in value)):
        raise ValidationError(f"{where} must be a list of names, got {value!r}")
    if shape in (PAIR, PARTS) and not (isinstance(value, (list, tuple))
                                       and len(value) == 2):
        raise ValidationError(f"{where} must hold exactly two entries, got {value!r}")
    if shape == _OP and value not in _OPS:
        raise ValidationError(f"{where} must be one of {' '.join(_OPS)}, got {value!r}")
    for part in value if shape == PARTS else ():
        _check_param(where, _PART, part)
    if shape in _FIELDS and not (shape == FILLER and value == "null"):
        fields, needs, one_of = _FIELDS[shape]
        _check_object(where, value, fields, needs)
        if one_of and (one_of[0] in value) == (one_of[1] in value):
            raise ValidationError(
                f"{where} needs exactly one of {one_of[0]!r} and {one_of[1]!r}")
        if shape == _PART and not value["attributes"]:
            raise ValidationError(f"{where}: a part needs at least one attribute")


@dataclass(frozen=True)
class SmoSpec:
    """One script step: an operator kind, its parameters and its variant.

    The parameters are checked against the operator's record, once: the
    record declares every key and its shape, and every key it does not mark
    optional must be present."""

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    variant: int = 1

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValidationError(f"unknown operator kind {self.kind!r}")
        if self.variant not in (1, 2):
            raise ValidationError(f"variant must be 1 or 2, got {self.variant!r}")
        op = OPERATORS[self.kind]
        if self.variant > op.variants:
            two = sorted(k for k, o in OPERATORS.items() if o.variants == 2)
            raise ValidationError(
                f"{self.kind} has a single formalization; variant 2 is only "
                f"defined for {two}"
            )
        _check_object(self.kind, self.params, op.params,
                      [k for k in op.params if k not in op.optional], "parameter")

    def param(self, key: str):
        """The value of parameter ``key``; an omitted optional parameter
        takes the value of the parameter its record names, or None."""
        if key in self.params:
            return self.params[key]
        default = OPERATORS[self.kind].optional[key]
        return None if default is None else self.params[default]


def script_to_json(script: Sequence[SmoSpec]) -> dict:
    return {"steps": [{"kind": s.kind, **s.params, "variant": s.variant}
                      for s in script]}


def script_from_json(obj) -> list[SmoSpec]:
    """The script of a JSON object; an error raised by a step's operator
    record names the step and its kind."""
    if not isinstance(obj, dict) or not isinstance(obj.get("steps"), list):
        raise ValidationError("script JSON must be an object with a 'steps' list")
    script = []
    for i, step in enumerate(obj["steps"]):
        if not isinstance(step, dict) or "kind" not in step:
            raise ValidationError(
                f"script step must be an object with 'kind': {step!r}")
        params = {k: v for k, v in step.items() if k not in ("kind", "variant")}
        variant = step.get("variant", 1)
        if type(variant) is not int or variant not in (1, 2):  # not a bool
            raise ValidationError(f"variant must be 1 or 2, got {variant!r}")
        try:
            script.append(SmoSpec(step["kind"], params, variant))
        except ValidationError as exc:
            raise ValidationError(f"step {i} ({step['kind']}): {exc}") from exc
    return script


# ---------------------------------------------------------------------------
# compile helpers


def _attr_vars(rel: RelationSchema) -> dict[str, Variable]:
    names = variable_names(rel.arity)
    return {attr: Variable(v) for attr, v in zip(rel.attributes, names)}


def _identity_tgd(rel: RelationSchema, target_name: str | None = None) -> StTgd:
    vars_ = [Variable(v) for v in variable_names(rel.arity)]
    head_rel = target_name or rel.name
    return StTgd(
        body=(Atom(rel.name, tuple(vars_)),),
        head=(Atom(head_rel, tuple(vars_)),),
    )


def _projection(wide: RelationSchema, narrow: RelationSchema) -> StTgd:
    """Project rows of ``wide`` onto the attributes of ``narrow``."""
    varmap = _attr_vars(wide)
    return StTgd(
        body=(Atom(wide.name, tuple(varmap[a] for a in wide.attributes)),),
        head=(Atom(narrow.name, tuple(varmap[a] for a in narrow.attributes)),),
    )


def _require_new_relation(schema: Schema, name: str) -> None:
    if schema.has(name):
        raise ValidationError(f"relation {name!r} already exists in the schema")


def _condition_term(schema_rel: RelationSchema, varmap: dict[str, Variable],
                    cond: Mapping[str, object]) -> tuple[Term, str, Term]:
    attr = cond["attribute"]
    if attr not in schema_rel.attributes:
        raise ValidationError(
            f"condition attribute {attr!r} is not in {schema_rel.name}"
        )
    left: Term = varmap[attr]
    if "value" in cond:
        right: Term = const(str(cond["value"]))
    else:
        attr2 = cond["attribute2"]
        if attr2 not in schema_rel.attributes:
            raise ValidationError(
                f"condition attribute {attr2!r} is not in {schema_rel.name}"
            )
        right = varmap[attr2]
    return left, cond["op"], right


_COMPLEMENT = {"=": ("<", ">"), "<": (">=",), "<=": (">",), ">": ("<=",), ">=": ("<",)}


# ---------------------------------------------------------------------------
# forward compilation


def compile_forward(smo: SmoSpec, source: Schema) -> SchemaMapping:
    """Compile an operator to its forward schema mapping over ``source``.

    Relations the operator leaves alone are carried by identity dependencies
    after the operator's own, in source order.
    """
    target, tgds, touched = OPERATORS[smo.kind].forward(smo, source)
    tail = tuple(_identity_tgd(rel) for rel in source.relations
                 if rel.name not in touched)
    return SchemaMapping(source, target, tuple(tgds) + tail)


def _forward_copy_table(smo: SmoSpec, source: Schema):
    rel = source.relation(smo.param("table"))
    copy_name = smo.param("copy")
    kept_name = smo.param("kept")
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
    return target, tgds, [rel.name]


def _forward_create_table(smo: SmoSpec, source: Schema):
    name = smo.param("table")
    attributes = tuple(smo.param("attributes"))
    _require_new_relation(source, name)
    return source.replacing(add=[RelationSchema(name, attributes)]), [], []


def _forward_decompose(smo: SmoSpec, source: Schema):
    rel = source.relation(smo.param("table"))
    part_schemas = []
    for part in smo.param("parts"):
        name, attrs = part["name"], tuple(part["attributes"])
        if name != rel.name:
            _require_new_relation(source, name)
        for a in attrs:
            rel.position(a)
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
    return target, tgds, [rel.name]


def _forward_drop_table(smo: SmoSpec, source: Schema):
    rel = source.relation(smo.param("table"))
    return source.replacing(drop=[rel.name]), [], [rel.name]


def _forward_join(smo: SmoSpec, source: Schema):
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
    return target, [tgd], [left.name, right.name]


def _forward_merge_table(smo: SmoSpec, source: Schema):
    left = source.relation(smo.param("left"))
    right = source.relation(smo.param("right"))
    if left.name == right.name:
        raise ValidationError("MERGE_TABLE needs two distinct tables")
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
    ]
    return target, tgds, [left.name, right.name]


def _forward_partition(smo: SmoSpec, source: Schema):
    rel = source.relation(smo.param("table"))
    t1, t2 = targets = smo.param("targets")
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
    return target, tgds, [rel.name]


def _forward_rename_table(smo: SmoSpec, source: Schema):
    rel = source.relation(smo.param("table"))
    new_name = smo.param("to")
    if new_name != rel.name:
        _require_new_relation(source, new_name)
    target = source.replacing(
        drop=[rel.name], add=[RelationSchema(new_name, rel.attributes)]
    )
    return target, [_identity_tgd(rel, target_name=new_name)], [rel.name]


def _forward_add_column(smo: SmoSpec, source: Schema):
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
    elif "const" in filler:
        new_term = const(str(filler["const"]))
    else:
        for a in filler.get("args", ()):
            if a not in varmap:
                raise ValidationError(
                    f"filler argument {a!r} is not a column of {rel.name}"
                )
        args = tuple(varmap[a] for a in filler.get("args", ()))
        new_term = FunctionTerm(filler["function"], args)
    tgd = StTgd(
        body=(Atom(rel.name, vars_),),
        head=(Atom(rel.name, vars_ + (new_term,)),),
        existential_vars=existential,
    )
    return target, [tgd], [rel.name]


def _copy_move_join(smo: SmoSpec, source: Schema, explicit_equality: bool):
    receiver = source.relation(smo.param("relation"))
    partner = source.relation(smo.param("source"))
    if receiver.name == partner.name:
        raise ValidationError("receiver and partner table must differ")
    join = smo.param("join")
    rcol = join["column"]
    pcol = join["source_column"]
    receiver.position(rcol)
    partner.position(pcol)
    moved = smo.param("column")
    partner.position(moved)
    if moved == pcol:
        raise ValidationError("the moved column cannot be the join column")
    new_name = smo.param("as")
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
    widened = RelationSchema(receiver.name, receiver.attributes + (new_name,))
    return partner, moved, widened, tgd


def _forward_copy_column(smo: SmoSpec, source: Schema):
    partner, moved, widened, tgd = _copy_move_join(
        smo, source, explicit_equality=(smo.variant == 2)
    )
    return source.replacing(widened), [tgd], [widened.name]


def _forward_move_column(smo: SmoSpec, source: Schema):
    partner, moved, widened, tgd = _copy_move_join(
        smo, source, explicit_equality=False
    )
    reduced = RelationSchema(
        partner.name, tuple(a for a in partner.attributes if a != moved))
    if not reduced.attributes:
        raise ValidationError("cannot move the only column of a table")
    target = source.replacing(widened, reduced)
    return (target, [tgd, _projection(partner, reduced)],
            [widened.name, partner.name])


def _forward_drop_column(smo: SmoSpec, source: Schema):
    rel = source.relation(smo.param("relation"))
    column = smo.param("column")
    rel.position(column)
    kept = RelationSchema(rel.name, tuple(a for a in rel.attributes if a != column))
    if not kept.attributes:
        raise ValidationError("cannot drop the only column of a table")
    return source.replacing(kept), [_projection(rel, kept)], [rel.name]


def _forward_merge_column(smo: SmoSpec, source: Schema):
    rel = source.relation(smo.param("relation"))
    c1, c2 = smo.param("columns")
    if c1 == c2:
        raise ValidationError(f"merged columns collide: {c1!r} is named twice")
    target_column = smo.param("target_column")
    target_name = smo.param("target")
    if target_name != rel.name:
        _require_new_relation(source, target_name)
    spot = min(rel.position(c1), rel.position(c2))
    attrs: list[str] = []
    for i, a in enumerate(rel.attributes):
        if i == spot:
            attrs.append(target_column)
        if a not in (c1, c2):
            attrs.append(a)
    if len(set(attrs)) != len(attrs):
        raise ValidationError(f"merged column name {target_column!r} collides")
    target = source.replacing(
        drop=[rel.name], add=[RelationSchema(target_name, tuple(attrs))]
    )
    varmap = _attr_vars(rel)
    merged = FunctionTerm(smo.param("function"), (varmap[c1], varmap[c2]))
    tgd = StTgd(
        body=(Atom(rel.name, tuple(varmap[a] for a in rel.attributes)),),
        head=(Atom(target_name, tuple(
            merged if a == target_column else varmap[a] for a in attrs)),),
    )
    return target, [tgd], [rel.name]


def _forward_rename_column(smo: SmoSpec, source: Schema):
    rel = source.relation(smo.param("relation"))
    column = smo.param("column")
    new_name = smo.param("to")
    rel.position(column)
    if new_name in rel.attributes and new_name != column:
        raise ValidationError(f"column {new_name!r} already exists in {rel.name}")
    attrs = tuple(new_name if a == column else a for a in rel.attributes)
    target = source.replacing(RelationSchema(rel.name, attrs))
    return target, [_identity_tgd(rel)], [rel.name]


def _forward_split_column(smo: SmoSpec, source: Schema):
    rel = source.relation(smo.param("relation"))
    column = smo.param("column")
    new_columns = smo.param("target_columns")
    target_name = smo.param("target")
    if target_name != rel.name:
        _require_new_relation(source, target_name)
    pos = rel.position(column)
    attrs = rel.attributes[:pos] + tuple(new_columns) + rel.attributes[pos + 1:]
    if len(set(attrs)) != len(attrs):
        raise ValidationError(f"split column names {new_columns} collide")
    target = source.replacing(
        drop=[rel.name], add=[RelationSchema(target_name, attrs)]
    )
    varmap = _attr_vars(rel)
    halves = {c: FunctionTerm(f, (varmap[column],))
              for c, f in zip(new_columns, smo.param("functions"))}
    tgd = StTgd(
        body=(Atom(rel.name, tuple(varmap[a] for a in rel.attributes)),),
        head=(Atom(target_name, tuple(halves[a] if a in halves else varmap[a]
                                      for a in attrs)),),
    )
    return target, [tgd], [rel.name]


def _forward_nop(smo: SmoSpec, source: Schema):
    return source, [], []


# ---------------------------------------------------------------------------
# inverse plans


def _dangling_rows(rel: RelationSchema) -> SideTableSpec:
    return SideTableSpec(f"{rel.name}_dangling", rel.name, "dangling",
                         rel.attributes)


def _column_values(rel: RelationSchema, column: str) -> SideTableSpec:
    return SideTableSpec(f"{rel.name}_{column}", rel.name, "projection",
                         (column,))


@dataclass(frozen=True)
class SideLookupRule:
    """A reconstruction dependency whose existential variables are bound from
    a row of the side table ``spec`` selected by the witness ids of the
    matched fact."""

    tgd: StTgd
    spec: SideTableSpec
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
    """Post-step appending the rows of the side table ``spec`` to the
    relation they were kept from, ``spec.relation``."""

    spec: SideTableSpec


@dataclass(frozen=True)
class InstanceFeatures:
    has_dangling: bool = False
    has_duplicates: bool = False


@dataclass(frozen=True)
class InversePlan:
    """One step's inverse: dependencies, then post-steps, and the inverse
    type it guarantees.  ``guarantee`` holds on every conforming instance;
    ``if_dangling`` and ``if_duplicates``, when set, are the weaker types
    that hold on an instance with danglings or duplicates.  What the plan
    reads follows from what it does."""

    smo: SmoSpec
    mapping: SchemaMapping
    lookups: tuple[SideLookupRule, ...] = ()
    expand_before: bool = False
    restrict: RestrictByOrigin | None = None
    appends: tuple[AppendSideRows, ...] = ()
    flagged_non_invertible: bool = False
    notes: tuple[str, ...] = ()
    guarantee: InverseType = InverseType.EXACT
    if_dangling: InverseType | None = None
    if_duplicates: InverseType | None = None

    def predicted(self, features: InstanceFeatures = InstanceFeatures()
                  ) -> InverseType:
        """Guaranteed lower bound on the classification the plan achieves
        on an instance with ``features``."""
        types = [self.guarantee]
        if features.has_dangling and self.if_dangling:
            types.append(self.if_dangling)
        if features.has_duplicates and self.if_duplicates:
            types.append(self.if_duplicates)
        return weakest(types)

    @property
    def required_side_tables(self) -> tuple[SideTableSpec, ...]:
        """The side tables the appends read, then those the lookups read."""
        return tuple(dict.fromkeys([a.spec for a in self.appends]
                                   + [r.spec for r in self.lookups]))

    @property
    def required_provenance(self) -> str:
        """``why`` to expand duplicates, look up side rows by witness or
        restrict to a common origin; ``where`` to append side rows or
        restrict per relation; otherwise ``none``."""
        restrict = self.restrict.kind if self.restrict else None
        if self.expand_before or self.lookups or restrict == "common_origin":
            return "why"
        if self.appends or restrict == "per_relation":
            return "where"
        return "none"

    def function_terms(self) -> list[FunctionTerm]:
        """The function applications in the plan's dependencies."""
        return [t for tgd in self.mapping.sigma + tuple(r.tgd for r in self.lookups)
                for t in tgd.function_terms()]

    @property
    def requires_inverse_function(self) -> bool:
        """Whether a dependency of the plan applies a function."""
        return bool(self.function_terms())

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


def side_table_specs(smo: SmoSpec, source: Schema) -> tuple[SideTableSpec, ...]:
    """Side tables the operator needs for its strongest inverse.  Tables
    are kept by name, so two different tables may not share one."""
    specs = compile_inverse(smo, source, "how", True, True).required_side_tables
    by_name: dict[str, SideTableSpec] = {}
    for spec in specs:
        other = by_name.setdefault(spec.name, spec)
        if other is not spec:
            raise ValidationError(
                f"two side tables of {smo.kind} share the name {spec.name!r}: "
                f"the {other.kind} table of {other.relation}"
                f"{list(other.attributes)} and the {spec.kind} table of "
                f"{spec.relation}{list(spec.attributes)}; rename a relation "
                f"or column")
    return specs


def inverse_function_ready(smo: SmoSpec, source: Schema,
                           functions: FunctionRegistry) -> bool:
    """Whether the operator's strongest inverse applies a function and the
    registry carries each one it applies, and its inverse where the plan
    applies that."""
    terms = compile_inverse(smo, source, "how", True, True).function_terms()
    return bool(terms) and all(
        functions.has_inverse(t.function) if t.inverse else functions.has(t.function)
        for t in terms)


def compile_inverse(
    smo: SmoSpec,
    source: Schema,
    provenance_level: str = "none",
    side_tables_available: bool = False,
    inverse_function_available: bool = False,
) -> InversePlan:
    """Strongest inverse plan the available resources permit.

    Always returns a plan; configurations that cannot promise reconstruction
    come back flagged rather than failing.  The plan's dependencies are the
    forward mapping read backwards (``_reversed``), identity dependencies
    included.  The operator's inverse builder, if it has one, adds what
    reversal cannot say: post-steps, guarantee, side-table lookups and, under
    ``tgds``, dependencies of its own, which come first.  A lookup or a
    builder's dependency replaces the reversed dependency that rebuilds the
    same relation.
    """
    forward = compile_forward(smo, source)
    mapping = _reversed(forward)
    build = OPERATORS[smo.kind].inverse
    fields = build(smo, source, forward, provenance_level, side_tables_available,
                   inverse_function_available) if build else {}
    supplied = fields.pop("tgds", ())
    replaced = {a.relation for t in supplied + tuple(r.tgd for r in fields.get("lookups", ()))
                for a in t.head}
    if replaced:
        mapping = SchemaMapping(mapping.source, mapping.target, supplied + tuple(
            t for t in mapping.sigma if replaced.isdisjoint(a.relation for a in t.head)))
    return InversePlan(smo=smo, mapping=mapping, **fields)


# Reversed forward mappings kept; each plan compile reverses one.
_REVERSED_MAPPINGS = 1 << 10


@lru_cache(maxsize=_REVERSED_MAPPINGS)
def _reversed(forward: SchemaMapping) -> SchemaMapping:
    """The forward mapping read backwards, from its target to its source.

    Each dependency's head becomes a body, any term that is not a variable
    replaced by a fresh one, and its body becomes the head (``_reverse``).
    A relation that some dependency reads alone is rebuilt only by those
    dependencies.  The reversals of one forward body are joined into one
    dependency when one of them cannot rebuild the body alone.  Duplicates
    are dropped.
    """
    alone = {t.body[0].relation for t in forward.sigma if len(t.body) == 1}
    fresh = (Variable(f"?{i}") for i in count())
    groups: dict[tuple[Atom, ...], tuple[tuple[Atom, ...], list]] = {}
    for tgd in forward.sigma:
        head = tuple(a for a in tgd.body if len(tgd.body) == 1 or a.relation not in alone)
        body = tuple(Atom(a.relation, tuple(t if isinstance(t, Variable) else next(fresh)
                                            for t in a.terms)) for a in tgd.head)
        if head:
            groups.setdefault(tgd.body, (head, []))[1].append((body, tgd.conditions))
    sigma = []
    for head, members in groups.values():
        tgds = [_reverse(body, head, conditions) for body, conditions in members]
        if any(t.existential_vars for t in tgds):
            tgds = [_reverse(sum((body for body, _ in members), ()), head,
                             sum((conditions for _, conditions in members), ()))]
        sigma += tgds
    return SchemaMapping(forward.target, forward.source, tuple(dict.fromkeys(sigma)))


def _reverse(body: tuple[Atom, ...], head: tuple[Atom, ...],
             conditions: tuple[Comparison, ...]) -> StTgd:
    """The dependency ``body -> head``.  A head variable the body does not
    bind takes the variable an ``=`` condition equates it to, if the body
    binds that one; the other conditions are dropped, and the variables
    still unbound are existential.  Variables are renamed in order of first
    occurrence, ``a, b, ...`` in the body and ``D, E, ...`` in the head."""
    bound = {t for a in body for t in a.terms}
    equal = {y: x for c in conditions if c.op == "="
             for x, y in ((c.left, c.right), (c.right, c.left))
             if x in bound and isinstance(y, Variable) and y not in bound}
    head = tuple(Atom(a.relation, tuple(equal.get(t, t) for t in a.terms)) for a in head)
    old = list(dict.fromkeys(t for a in body for t in a.terms))
    unbound = list(dict.fromkeys(t for a in head for t in a.terms if t not in bound))
    names = dict(zip(old, map(Variable, variable_names(len(old)))))
    names.update(zip(unbound, map(Variable, _existential_names(len(unbound)))))

    def renamed(atoms):
        return tuple(Atom(a.relation, tuple(names[t] for t in a.terms)) for a in atoms)

    return StTgd(renamed(body), renamed(head),
                 existential_vars=frozenset(names[v].name for v in unbound))


def _existential_names(n: int) -> list[str]:
    letters = "DEFGHIJKLMNOPQRSTUVWXYZABC"
    return [letters[i % 26] + (str(i // 26) if i >= 26 else "") for i in range(n)]


def _expanded(level: str) -> dict:
    """Plan fields of a projection inverse: under why or how provenance the
    rows the forward step merged are first re-expanded by witness count, so
    tuples are kept; without, they are kept only when no rows merged."""
    if level in ("why", "how"):
        return {"expand_before": True, "guarantee": InverseType.TP_RELAXED}
    return {"guarantee": InverseType.TP_RELAXED,
            "if_duplicates": InverseType.RELAXED}


def _inverse_decompose(smo, source, forward, level, side, invfn):
    if level in ("why", "how"):
        return {
            "restrict": RestrictByOrigin("common_origin", (smo.param("table"),)),
            "notes": ("join restricted to part pairs sharing a source row",),
            "guarantee": InverseType.TP_RELAXED,
        }
    return {"if_duplicates": InverseType.RESULT_EQUIVALENT}


def _inverse_drop_table(smo, source, forward, level, side, invfn):
    if side and level != "none":
        rel = source.relation(smo.param("table"))
        spec = SideTableSpec(f"{rel.name}_dropped", rel.name, "projection", ())
        return {
            "appends": (AppendSideRows(spec),),
            "notes": ("dropped rows return as all-null placeholders, "
                      "one per recorded id",),
            "guarantee": InverseType.TP_RELAXED,
        }
    return {"guarantee": InverseType.RELAXED}


def _inverse_join(smo, source, forward, level, side, invfn):
    if side and level != "none":
        left, right = (source.relation(smo.param(t)) for t in ("left", "right"))
        return {
            "appends": (AppendSideRows(_dangling_rows(left)),
                        AppendSideRows(_dangling_rows(right))),
            "notes": ("dangling rows restored from side tables",),
        }
    return {"if_dangling": InverseType.RELAXED}


def _inverse_merge_table(smo, source, forward, level, side, invfn):
    if level != "none":
        return {
            "restrict": RestrictByOrigin("per_relation",
                                         (smo.param("left"), smo.param("right"))),
            "notes": ("rows kept only in the table their origins come from",),
        }
    return {"guarantee": InverseType.RESULT_EQUIVALENT}


def _refill_rule(rel: RelationSchema, column: str) -> SideLookupRule:
    """Rebuild ``rel`` rows from rows lacking ``column``, whose value is read
    from the side table of its values."""
    varmap = {**_attr_vars(rel), column: Variable("C")}
    return SideLookupRule(
        StTgd(body=(Atom(rel.name, tuple(varmap[a] for a in rel.attributes
                                         if a != column)),),
              head=(Atom(rel.name, tuple(varmap[a] for a in rel.attributes)),),
              existential_vars=frozenset({"C"})),
        spec=_column_values(rel, column),
        bindings={"C": column},
    )


def _inverse_drop_column(smo, source, forward, level, side, invfn):
    if level in ("why", "how") and side:
        rel = source.relation(smo.param("relation"))
        return {
            "lookups": (_refill_rule(rel, smo.param("column")),),
            "expand_before": True,
            "notes": ("dropped values restored from the side table",),
        }
    return _expanded(level)


def _inverse_merge_column(smo, source, forward, level, side, invfn):
    rel = source.relation(smo.param("relation"))
    c1, c2 = smo.param("columns")
    function = smo.param("function")
    if level in ("why", "how") and side and invfn:
        merged = forward.target.relation(smo.param("target"))
        mv = _attr_vars(merged)
        inverse = FunctionTerm(function, (mv[smo.param("target_column")],
                                          Variable("C")), inverse=True)
        head_terms = tuple(
            inverse if a == c1 else Variable("C") if a == c2 else mv[a]
            for a in rel.attributes
        )
        lookup = SideLookupRule(
            StTgd(body=(Atom(merged.name,
                             tuple(mv[a] for a in merged.attributes)),),
                  head=(Atom(rel.name, head_terms),),
                  existential_vars=frozenset({"C"})),
            spec=_column_values(rel, c2),
            bindings={"C": c2},
        )
        return {
            "lookups": (lookup,),
            "expand_before": True,
            "notes": ("merged values recomputed with the inverse function and "
                      "the side table",),
        }
    fields = _expanded(level)
    if level in ("why", "how") and side:
        fields["notes"] = (f"downgraded: no inverse registered for {function!r}, "
                           f"merged values stay null",)
    return fields


def _inverse_move_column(smo, source, forward, level, side, invfn):
    if side and level in ("why", "how"):
        return {
            "lookups": (_refill_rule(source.relation(smo.param("source")),
                                     smo.param("column")),),
            "expand_before": True,
            "appends": (AppendSideRows(_dangling_rows(
                source.relation(smo.param("relation")))),),
            "notes": ("moved values restored from the side table; dangling "
                      "receiver rows appended",),
        }
    return {
        "flagged_non_invertible": level == "none" and not side,
        "notes": ("moved values cannot be recovered without side tables",),
        "guarantee": InverseType.NONE,
    }


def _inverse_split_column(smo, source, forward, level, side, invfn):
    recombine = smo.param("recombine")
    if invfn and recombine:
        rel = source.relation(smo.param("relation"))
        column = smo.param("column")
        split_rel = forward.target.relation(smo.param("target"))
        sv = _attr_vars(split_rel)
        b, c = smo.param("target_columns")
        head_terms = tuple(
            FunctionTerm(recombine, (sv[b], sv[c])) if a == column else sv[a]
            for a in rel.attributes
        )
        tgd = StTgd(
            body=(Atom(split_rel.name,
                       tuple(sv[a] for a in split_rel.attributes)),),
            head=(Atom(rel.name, head_terms),),
        )
        return {"tgds": (tgd,),
                "notes": ("halves recombined with the registered function",)}
    return _expanded(level)


# ---------------------------------------------------------------------------
# instance features


def instance_features(smo: SmoSpec, instance: Instance,
                      functions: FunctionRegistry | None = None) -> InstanceFeatures:
    """The features of a concrete source instance that the guarantees of
    the operator's plans read: danglings (rows no trigger consumes) for
    ``JOIN_TABLE``, duplicates (rows the operator's output collapses) for
    ``DECOMPOSE_TABLE``, ``DROP_COLUMN``, ``MERGE_COLUMN`` and
    ``SPLIT_COLUMN``.  Every other operator's plans read none, and its
    features stay at their defaults."""
    features = OPERATORS[smo.kind].features
    if features is None:
        return InstanceFeatures()
    return features(smo, instance, functions or default_registry())


def _join_danglings(smo: SmoSpec, instance: Instance,
                    functions: FunctionRegistry) -> InstanceFeatures:
    matched = matched_source_ids(instance, compile_forward(smo, instance.schema))
    return InstanceFeatures(has_dangling=any(
        f.id not in matched
        for r in (smo.param("left"), smo.param("right"))
        for f in instance.facts(r)
    ))


def _collapsed_rows(smo: SmoSpec, instance: Instance,
                    functions: FunctionRegistry) -> InstanceFeatures:
    """Whether two source rows chase to one output row (DROP_COLUMN,
    MERGE_COLUMN, SPLIT_COLUMN)."""
    forward = compile_forward(smo, instance.schema)
    output = forward.sigma[0].head[0].relation  # the operator's own dependency
    out, store = chase(instance, forward, "why", functions)
    return InstanceFeatures(has_duplicates=any(
        len(store.witnesses(f.id) or ()) > 1 for f in out.facts(output)
    ))


def _shared_key_duplicates(smo: SmoSpec, instance: Instance,
                           functions: FunctionRegistry) -> InstanceFeatures:
    """Whether two rows agree on the attributes both decomposition parts
    keep (DECOMPOSE_TABLE)."""
    rel = instance.schema.relation(smo.param("table"))
    parts = smo.param("parts")
    shared = [a for a in parts[0]["attributes"] if a in parts[1]["attributes"]]
    positions = [rel.position(a) for a in shared]
    seen: set[tuple] = set()
    for fact in instance.facts(rel.name):
        key = tuple(fact.values[p] for p in positions)
        if key in seen:
            return InstanceFeatures(has_duplicates=True)
        seen.add(key)
    return InstanceFeatures()


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class Operator:
    """One schema-modification operator.

    ``forward(smo, source)`` returns the target schema, the operator's own
    dependencies and the names of the source relations it touches; the
    inverse plan's dependencies are those of the forward mapping, reversed.
    ``inverse(smo, source, forward, level, side, invfn)``, for operators
    whose plan is more than that, returns the ``InversePlan`` fields that
    reversal cannot say, for a provenance level, side-table and
    inverse-function availability: post-steps, the guarantee, side-table
    lookups and, under ``tgds``, dependencies that replace reversed ones.
    Without it the plan is exact.  ``features`` computes the
    ``InstanceFeatures`` that the guarantees read.
    ``params`` maps each parameter to its shape; ``optional`` maps each
    parameter a spec may omit to the parameter whose value it then takes,
    or to None.
    """

    classes: tuple[str, ...]
    inverse_kinds: tuple[str, ...]
    description: str
    forward: Callable
    demo: tuple[Schema, dict]  # a small schema and parameters for the catalog
    params: Mapping[str, str]
    inverse: Callable | None = None
    optional: Mapping[str, str | None] = field(default_factory=dict)
    variants: int = 1
    features: Callable | None = None


def _rel(name: str, *attributes: str) -> RelationSchema:
    return RelationSchema(name, attributes)


_PAIR = Schema.of(_rel("R", "id", "name"), _rel("V", "name", "subject"))
_PARTNER_JOIN = {"relation": "R", "source": "V",
                 "join": {"column": "name", "source_column": "name"},
                 "column": "subject"}
_PARTNER_PARAMS = {"relation": NAME, "source": NAME, "join": JOIN,
                   "column": NAME, "as": NAME}

OPERATORS: dict[str, Operator] = {
    "COPY_TABLE": Operator(
        ("I",), ("DROP_TABLE", "MERGE_TABLE"), "duplicate a table",
        _forward_copy_table, variants=2,
        demo=(Schema.of(_rel("R", "a1", "a2", "a3")),
              {"table": "R", "copy": "V", "kept": "R'"}),
        params={"table": NAME, "copy": NAME, "kept": NAME}, optional={"kept": "table"}),
    "CREATE_TABLE": Operator(
        ("I",), ("DROP_TABLE",), "add a new, empty table",
        _forward_create_table,
        demo=(Schema.of(_rel("R", "a1", "a2")),
              {"table": "V", "attributes": ["b1", "b2"]}),
        params={"table": NAME, "attributes": NAMES}),
    "DECOMPOSE_TABLE": Operator(
        ("III",), ("ADD_COLUMN", "JOIN_TABLE"),
        "project a table onto two overlapping parts",
        _forward_decompose, inverse=_inverse_decompose, variants=2,
        features=_shared_key_duplicates,
        demo=(Schema.of(_rel("R", "a1", "a2", "a3")),
              {"table": "R",
               "parts": [{"name": "R1", "attributes": ["a1", "a2"]},
                         {"name": "R2", "attributes": ["a1", "a3"]}]}),
        params={"table": NAME, "parts": PARTS}),
    "DROP_TABLE": Operator(
        ("IV",), ("CREATE_TABLE",), "remove a table",
        _forward_drop_table, inverse=_inverse_drop_table,
        demo=(Schema.of(_rel("R", "a1", "a2"), _rel("V", "b1", "b2")),
              {"table": "R"}),
        params={"table": NAME}),
    "JOIN_TABLE": Operator(
        ("II",), ("DECOMPOSE_TABLE",), "fuse two tables along a join condition",
        _forward_join, inverse=_inverse_join, features=_join_danglings,
        demo=(_PAIR, {"left": "R", "right": "V", "left_column": "name",
                      "right_column": "name", "target": "T"}),
        params=dict.fromkeys(("left", "right", "left_column", "right_column",
                                "target"), NAME)),
    "MERGE_TABLE": Operator(
        ("IV",), ("PARTITION_TABLE",), "union two tables of equal shape into one",
        _forward_merge_table, inverse=_inverse_merge_table,
        demo=(Schema.of(_rel("R", "a1", "a2", "a3"), _rel("V", "a1", "a2", "a3")),
              {"left": "R", "right": "V", "target": "T"}),
        params=dict.fromkeys(("left", "right", "target"), NAME)),
    "PARTITION_TABLE": Operator(
        ("I",), ("MERGE_TABLE",), "split a table in two by a row condition",
        _forward_partition,
        demo=(Schema.of(_rel("R", "id", "name", "subject")),
              {"table": "R",
               "condition": {"attribute": "subject", "op": "=", "value": "Math"},
               "targets": ["T1", "T2"]}),
        params={"table": NAME, "condition": CONDITION, "targets": PAIR}),
    "RENAME_TABLE": Operator(
        ("I",), ("RENAME_TABLE",), "change a table name",
        _forward_rename_table,
        demo=(Schema.of(_rel("R", "a1", "a2")), {"table": "R", "to": "V"}),
        params={"table": NAME, "to": NAME}),
    "ADD_COLUMN": Operator(
        ("I",), ("DROP_COLUMN",),
        "append a column filled by a constant, a function, or nulls",
        _forward_add_column, variants=2,
        demo=(Schema.of(_rel("R", "a1", "a2")),
              {"relation": "R", "column": "a3",
               "filler": {"function": "concat_pipe", "args": ["a1", "a2"]}}),
        params={"relation": NAME, "column": NAME, "filler": FILLER}),
    "COPY_COLUMN": Operator(
        ("I",), ("DROP_COLUMN",), "pull a column in from a partner table via a join",
        _forward_copy_column, variants=2,
        demo=(_PAIR, _PARTNER_JOIN),
        params=_PARTNER_PARAMS, optional={"as": "column"}),
    "DROP_COLUMN": Operator(
        ("III",), ("ADD_COLUMN",), "remove a column",
        _forward_drop_column, inverse=_inverse_drop_column, features=_collapsed_rows,
        demo=(Schema.of(_rel("R", "a1", "a2", "a3")),
              {"relation": "R", "column": "a3"}),
        params={"relation": NAME, "column": NAME}),
    "MERGE_COLUMN": Operator(
        ("III",), ("SPLIT_COLUMN",), "replace two columns by a function of both",
        _forward_merge_column, inverse=_inverse_merge_column, features=_collapsed_rows,
        demo=(Schema.of(_rel("R", "name", "mod1", "mod2")),
              {"relation": "R", "columns": ["mod1", "mod2"],
               "target_column": "sum", "function": "dec_add", "target": "T"}),
        params={"relation": NAME, "columns": PAIR, "target_column": NAME,
                "function": NAME, "target": NAME},
        optional={"target": "relation"}),
    "MOVE_COLUMN": Operator(
        ("II", "III"), ("MOVE_COLUMN",),
        "like COPY_COLUMN, but the partner table loses the column",
        _forward_move_column, inverse=_inverse_move_column,
        demo=(_PAIR, _PARTNER_JOIN),
        params=_PARTNER_PARAMS, optional={"as": "column"}),
    "RENAME_COLUMN": Operator(
        ("I",), ("RENAME_COLUMN",), "change a column name",
        _forward_rename_column,
        demo=(Schema.of(_rel("R", "a1", "a2")),
              {"relation": "R", "column": "a2", "to": "b2"}),
        params={"relation": NAME, "column": NAME, "to": NAME}),
    "SPLIT_COLUMN": Operator(
        ("III",), ("MERGE_COLUMN",), "replace one column by two functions of it",
        _forward_split_column, inverse=_inverse_split_column, features=_collapsed_rows,
        demo=(Schema.of(_rel("R", "name", "code")),
              {"relation": "R", "column": "code",
               "target_columns": ["head", "tail"],
               "functions": ["split_pipe_head", "split_pipe_tail"],
               "recombine": "concat_pipe", "target": "T"}),
        params={"relation": NAME, "column": NAME, "target_columns": PAIR,
                "functions": PAIR, "recombine": NAME, "target": NAME},
        optional={"recombine": None, "target": "relation"}),
    "NOP": Operator(
        ("I",), ("NOP",), "do nothing", _forward_nop,
        demo=(Schema.of(_rel("R", "a1", "a2")), {}),
        params={}),
}

ALL_KINDS = tuple(OPERATORS)


def catalog_entries() -> list[dict]:
    """One entry per operator: class, description, inverse operator names,
    and example forward/inverse dependencies over a small demo schema."""
    from .tgds import format_tgd

    entries = []
    for kind, op in OPERATORS.items():
        schema, params = op.demo
        smo = SmoSpec(kind, params)
        forward = compile_forward(smo, schema)
        plan = compile_inverse(smo, schema, "how", True, True)
        entries.append({
            "kind": kind,
            "class": "/".join(op.classes),
            "description": op.description,
            "inverse": "/".join(op.inverse_kinds),
            "forward": [format_tgd(t) for t in forward.sigma],
            "inverse_tgds": [format_tgd(t) for t in plan.mapping.sigma]
                            + [format_tgd(r.tgd) for r in plan.lookups],
        })
    return entries
