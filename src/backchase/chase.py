"""The chase: apply a schema mapping's dependencies to an instance.

Since every dependency reads the source schema and writes the target schema,
one pass over all triggers terminates.  Trigger order is deterministic: tgds
in declaration order, body matches in canonical fact order (value-vector sort,
then tuple id), nested left to right over the body atoms.  Each instance sorts
a relation into canonical order once (``Instance.sorted_facts``), however many
chases read it.

Each tgd compiles once into a cached plan (``_plan``) over slots: each body
variable gets an index in order of first binding, then the existentials.  Per
body atom, the plan holds the hash-index key on the positions earlier atoms
fix (through shared variables or ``=`` conditions), the checks the key does
not guarantee, and an ``itemgetter`` for its new slots: the fact's own value
tuple when the first atom binds every position in order.  Buckets keep
canonical order, so the triggers that fire, and their order, are those of the
plain nested loop.  Conditions compile to operators over slots and constants,
whose order keys are computed once.  A head atom of variables is an
``itemgetter`` over the slots, or the slots tuple itself when it lists them
in order, so identity dependencies share the source vector; function terms
compile to closures over slot indices.

Each trigger allocates one fresh null per existential variable, evaluates
function terms over bound constants, and emits its head atoms.  Output facts
with identical value vectors in one relation are merged.  Their annotations
are summed once per fact, after all triggers ran, in the requested provenance
mode; each trigger contributes the product of the body facts it matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import eq, ge, gt, itemgetter, le, lt
from typing import Callable, Iterator, Mapping, Sequence

from .errors import ChaseError, ProvenanceError, SchemaMismatch
from .functions import FunctionRegistry, default_registry
from .model import (
    Constant,
    Fact,
    IdAllocator,
    Instance,
    Null,
    NullAllocator,
    TupleId,
    Value,
    constant_order_key,
    relation_tag,
    schemas_equal,
    seed_allocators,
)
from .provenance import Polynomial, ProvenanceStore, check_mode, poly_add
from .tgds import SchemaMapping, StTgd, Term, Variable

Slots = tuple[Value, ...]
_TESTS = {"=": eq, "<": lt, "<=": le, ">": gt, ">=": ge}


def sorted_facts(instance: Instance, relation: str) -> tuple[Fact, ...]:
    """One relation's facts in canonical order: value vector, then tuple id."""
    return instance.sorted_facts(relation)


def _sorted_facts(instance: Instance) -> dict[str, tuple[Fact, ...]]:
    return {rel: instance.sorted_facts(rel) for rel in instance.schema.names()}


def _picker(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """An ``itemgetter`` that returns a tuple for any number of indices; a
    run of consecutive ones is a slice, which returns a whole tuple itself."""
    start = indices[0] if indices else 0
    if list(indices) == list(range(start, start + len(indices))):
        return itemgetter(slice(start, start + len(indices)))
    return itemgetter(*indices)


@dataclass(frozen=True, slots=True)
class _BodyStep:
    """How one body atom is matched once the atoms before it are.

    The index key: ``key`` reads it off a fact at the positions earlier atoms
    fix, ``lookup`` off the slots that supply the values there (both None
    when the atom is scanned); ``strict`` holds the positions fixed only
    through an ``=`` condition, where a null can never satisfy the condition,
    so facts with one are left out of the index.  A fact found under the key
    still has to hold ``constants`` (position, constant), agree with the slots
    at ``checks`` (position, slot) and repeat itself at ``repeats`` (position,
    position of the variable's first occurrence); ``bind`` then reads the
    slots it adds, none when it binds no new variable."""

    relation: str
    key: Callable[[tuple], object] | None
    lookup: Callable[[tuple], object] | None
    strict: tuple[int, ...]
    constants: tuple[tuple[int, Constant], ...]
    checks: tuple[tuple[int, int], ...]
    repeats: tuple[tuple[int, int], ...]
    bind: Callable[[tuple], tuple]


@dataclass(frozen=True, slots=True)
class _HeadStep:
    """One head atom: ``pick`` reads its vector off the slots when every term
    is a variable, else it is None and ``terms`` are evaluated."""

    relation: str
    tag: str
    pick: Callable[[Slots], Slots] | None
    terms: tuple[Callable[[Slots, FunctionRegistry], Value], ...]


@dataclass(frozen=True, slots=True)
class _Plan:
    body: tuple[_BodyStep, ...]
    head: tuple[_HeadStep, ...]
    existential: tuple[str, ...]
    # per comparison: its operator, whether it compares order keys, and each
    # side's slot or constant (its order key when compared by order)
    conditions: tuple[tuple[Callable, bool, object, object], ...]


def _compile_term(term: Term, slot: Mapping[str, int]) -> Callable:
    """``term`` as a function of the slots and the registry, evaluated as
    ``evaluate_term`` evaluates it."""
    if isinstance(term, Variable):
        return lambda slots, functions, i=slot[term.name]: slots[i]
    if isinstance(term, Constant):
        return lambda slots, functions: term
    args = tuple(_compile_term(a, slot) for a in term.args)

    def apply(slots: Slots, functions: FunctionRegistry) -> Value:
        values = tuple([a(slots, functions) for a in args])
        if any(isinstance(v, Null) for v in values):
            raise ChaseError(f"function {term.function!r} applied to a null "
                             f"value; function inputs must be ground")
        if term.inverse:
            return functions.call_inverse(term.function, values[0], values[1:])
        return functions.call(term.function, values)
    return apply


@lru_cache(maxsize=1024)
def _plan(tgd: StTgd) -> _Plan:
    """Compile ``tgd`` into its match and fire plan; the first body atom is
    scanned, every later one looked up by its key."""
    equal: dict[str, list[str]] = {}
    for cond in tgd.conditions:
        if (cond.op == "=" and isinstance(cond.left, Variable)
                and isinstance(cond.right, Variable)):
            equal.setdefault(cond.left.name, []).append(cond.right.name)
            equal.setdefault(cond.right.name, []).append(cond.left.name)
    body = []
    slot: dict[str, int] = {}  # variables bound by earlier atoms -> slot
    for atom in tgd.body:
        positions: list[int] = []
        sources: list[int] = []
        strict: list[int] = []
        constants: list[tuple[int, Constant]] = []
        checks: list[tuple[int, int]] = []
        repeats: list[tuple[int, int]] = []
        first: dict[str, int] = {}  # variables this atom binds -> position
        keyed: set[str] = set()
        for pos, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                constants.append((pos, term))
            elif not isinstance(term, Variable):
                raise ChaseError("function terms cannot appear in a body atom")
            elif term.name in slot:
                if term.name in keyed:
                    checks.append((pos, slot[term.name]))
                else:  # the key guarantees the value here
                    keyed.add(term.name)
                    positions.append(pos)
                    sources.append(slot[term.name])
            elif term.name in first:
                repeats.append((pos, first[term.name]))
            else:
                first[term.name] = pos
                source = next((v for v in equal.get(term.name, ()) if v in slot),
                              None)
                if source is not None:
                    positions.append(pos)
                    sources.append(slot[source])
                    strict.append(pos)
        body.append(_BodyStep(
            atom.relation, itemgetter(*positions) if positions else None,
            itemgetter(*sources) if sources else None, tuple(strict),
            tuple(constants), tuple(checks), tuple(repeats),
            _picker(list(first.values()))))
        slot |= {name: len(slot) + i for i, name in enumerate(first)}
    existential = tgd.existential_order()
    slot |= {name: len(slot) + i for i, name in enumerate(existential)}
    head = tuple(
        _HeadStep(atom.relation, relation_tag(atom.relation),
                  _picker([slot[t.name] for t in atom.terms])
                  if all(isinstance(t, Variable) for t in atom.terms) else None,
                  tuple(_compile_term(t, slot) for t in atom.terms))
        for atom in tgd.head)
    conditions = []
    for cond in tgd.conditions:
        ordered = cond.op != "="
        left, right = (slot[t.name] if isinstance(t, Variable)
                       else constant_order_key(t) if ordered else t
                       for t in (cond.left, cond.right))
        conditions.append((_TESTS[cond.op], ordered, left, right))
    return _Plan(tuple(body), head, existential, tuple(conditions))


def _index(facts: Sequence[Fact], step: _BodyStep) -> dict[object, list[Fact]]:
    buckets: dict[object, list[Fact]] = {}
    key, strict = step.key, step.strict
    for fact in facts:
        values = fact.values
        if strict and any(isinstance(values[p], Null) for p in strict):
            continue
        buckets.setdefault(key(values), []).append(fact)
    return buckets


def iter_body_matches(
    tgd: StTgd, facts: Mapping[str, Sequence[Fact]]
) -> Iterator[tuple[Slots, tuple[Fact, ...]]]:
    """Body matches, each as its slots and the facts it used, in order: the
    nested loop over the body atoms, left to right, each over its facts in
    the given order.

    Every atom after the first is looked up in a hash index on the positions
    that earlier atoms fix, through a shared variable or an ``=`` condition
    between variables.  Buckets keep the given fact order, so the matches
    come out in nested-loop order, less those an ``=`` condition between
    atoms rules out.  Other conditions are not applied: the caller still
    runs ``conditions_hold`` on every match."""
    steps = _plan(tgd).body
    pools = [_index(facts.get(step.relation, ()), step) if step.key
             else facts.get(step.relation, ()) for step in steps]
    last = len(steps) - 1
    # Explicit stack: per depth, the facts left to try, the slots bound by
    # the atoms before it, and the fact it matched.
    todo = [iter(pools[0])] + [None] * last
    bound: list[Slots] = [()] * (last + 1)
    used: list[Fact] = [None] * (last + 1)
    depth = 0
    while depth >= 0:
        step = steps[depth]
        slots = bound[depth]
        constants, checks, repeats, bind = (
            step.constants, step.checks, step.repeats, step.bind)
        for fact in todo[depth]:
            values = fact.values
            if constants and any(values[p] != c for p, c in constants):
                continue
            if checks and any(values[p] != slots[s] for p, s in checks):
                continue
            if repeats and any(values[p] != values[q] for p, q in repeats):
                continue
            extended = slots + bind(values)
            used[depth] = fact
            if depth == last:
                yield extended, tuple(used)
                continue
            depth += 1
            nxt = steps[depth]
            pool = pools[depth]
            if nxt.lookup is not None:
                pool = pool.get(nxt.lookup(extended), ())
            todo[depth] = iter(pool)
            bound[depth] = extended
            break
        else:
            depth -= 1


def conditions_hold(conditions: Sequence[tuple], slots: Slots) -> bool:
    """Evaluate a plan's compiled comparison conditions over a match's
    slots; any null operand makes the trigger non-matching (three-valued
    logic collapsed to false)."""
    for test, ordered, left, right in conditions:
        if type(left) is int:
            left = slots[left]
            if isinstance(left, Null):
                return False
            if ordered:
                left = constant_order_key(left)
        if type(right) is int:
            right = slots[right]
            if isinstance(right, Null):
                return False
            if ordered:
                right = constant_order_key(right)
        if not test(left, right):
            return False
    return True


def evaluate_term(term: Term, bindings: Mapping[str, Value],
                  functions: FunctionRegistry) -> Value:
    if isinstance(term, Variable):
        return bindings[term.name]
    if isinstance(term, Constant):
        return term
    args = tuple(evaluate_term(a, bindings, functions) for a in term.args)
    for arg in args:
        if isinstance(arg, Null):
            raise ChaseError(
                f"function {term.function!r} applied to a null value; "
                f"function inputs must be ground"
            )
    if term.inverse:
        return functions.call_inverse(term.function, args[0], args[1:])
    return functions.call(term.function, args)


def _validate_mapping_functions(mapping: SchemaMapping,
                                functions: FunctionRegistry) -> None:
    for tgd in mapping.sigma:
        for term in tgd.function_terms():
            fn = functions.get(term.function)
            if term.inverse:
                if fn.invert_first is None:
                    raise ChaseError(
                        f"function {term.function!r} has no registered inverse"
                    )
                if len(term.args) != fn.arity:
                    raise ChaseError(
                        f"inverse application of {term.function!r} expects "
                        f"{fn.arity} arguments"
                    )
            elif len(term.args) != fn.arity:
                raise ChaseError(
                    f"function {term.function!r} expects {fn.arity} arguments, "
                    f"tgd supplies {len(term.args)}"
                )


def chase(
    instance: Instance,
    mapping: SchemaMapping,
    provenance_mode: str = "none",
    functions: FunctionRegistry | None = None,
    nulls: NullAllocator | None = None,
    ids: IdAllocator | None = None,
) -> tuple[Instance, ProvenanceStore]:
    """Chase ``instance`` through ``mapping``, producing the target instance
    and a provenance store keyed by the target's tuple ids."""
    check_mode(provenance_mode)
    if not schemas_equal(instance.schema, mapping.source):
        raise SchemaMismatch(
            f"instance schema {instance.schema.names()} does not match the "
            f"mapping source {mapping.source.names()}"
        )
    functions = functions or default_registry()
    _validate_mapping_functions(mapping, functions)
    if nulls is None or ids is None:
        fresh_nulls, fresh_ids = seed_allocators(instance)
        nulls = nulls or fresh_nulls
        ids = ids or fresh_ids

    facts = _sorted_facts(instance)
    # per target relation, output vector -> tuple id, in order of first output
    outputs: dict[str, dict[tuple[Value, ...], TupleId]] = {
        rel.name: {} for rel in mapping.target.relations}
    # per output fact, the body facts of each trigger that produced it
    derivations: dict[TupleId, list[tuple[Fact, ...]]] = {}
    derive = provenance_mode != "none"
    fresh_id, fresh_null = ids.fresh, nulls.fresh

    for tgd in mapping.sigma:
        plan = _plan(tgd)
        conditions, existential, head = plan.conditions, plan.existential, plan.head
        distinct = len(head) > 1
        for slots, used in iter_body_matches(tgd, facts):
            if not conditions_hold(conditions, slots):
                continue
            if existential:
                slots += tuple([fresh_null() for _ in existential])
            if distinct:
                emitted: set[tuple[str, tuple[Value, ...]]] = set()
            for step in head:
                vector = (step.pick(slots) if step.pick is not None else
                          tuple([t(slots, functions) for t in step.terms]))
                if distinct:
                    if (step.relation, vector) in emitted:
                        continue
                    emitted.add((step.relation, vector))
                by_vector = outputs[step.relation]
                tid = by_vector.get(vector)
                if tid is None:
                    tid = by_vector[vector] = fresh_id(step.tag)
                    if derive:
                        derivations[tid] = [used]
                elif derive:
                    derivations[tid].append(used)

    result = Instance(mapping.target, {
        rel: [Fact(tid, vector) for vector, tid in by_vector.items()]
        for rel, by_vector in outputs.items()})
    rel_of = ({f.id: rel for rel, flist in facts.items() for f in flist}
              if provenance_mode == "where" else {})
    annotations = {tid: _annotation(provenance_mode, witnesses, rel_of)
                   for tid, witnesses in derivations.items()}
    return result, ProvenanceStore(provenance_mode, annotations)


def _annotation(mode: str, derivations: list[tuple[Fact, ...]],
                rel_of: dict[TupleId, str]):
    """Sum a fact's derivations once, in the store's mode; each derivation
    is the product of the body facts its trigger matched."""
    if mode == "how":
        return poly_add(*[Polynomial.of(*[f.id for f in witness])
                          for witness in derivations])
    if mode == "why":
        return frozenset(frozenset(f.id for f in witness) for witness in derivations)
    return frozenset(rel_of[f.id] for witness in derivations for f in witness)


def matched_source_ids(instance: Instance, mapping: SchemaMapping) -> frozenset[TupleId]:
    """Ids of source facts that participate in at least one trigger."""
    facts = _sorted_facts(instance)
    used: set[TupleId] = set()
    for tgd in mapping.sigma:
        conditions = _plan(tgd).conditions
        for slots, witness in iter_body_matches(tgd, facts):
            if conditions_hold(conditions, slots):
                used.update(f.id for f in witness)
    return frozenset(used)


def expand_duplicates(
    target: Instance,
    store: ProvenanceStore,
    ids: IdAllocator | None = None,
) -> tuple[Instance, ProvenanceStore]:
    """Undo value-level merging: a fact whose annotation sums n derivations is
    replaced by n facts with identical values and fresh ids, each carrying a
    single derivation.  Needs why- or how-provenance."""
    if store.mode not in ("why", "how"):
        raise ProvenanceError(
            f"duplicate expansion needs why- or how-provenance, store has "
            f"{store.mode!r}"
        )
    if ids is None:
        _, ids = seed_allocators(target)
    new_facts: dict[str, list[Fact]] = {}
    new_ann: dict[TupleId, object] = {}
    for rel in target.schema.relations:
        out: list[Fact] = []
        for fact in target.facts(rel.name):
            ann = store.annotations.get(fact.id)
            pieces = _annotation_pieces(store.mode, ann)
            if len(pieces) <= 1:
                out.append(fact)
                if ann is not None:
                    new_ann[fact.id] = ann
                continue
            for piece in pieces:
                tid = ids.fresh(relation_tag(rel.name))
                out.append(Fact(tid, fact.values))
                new_ann[tid] = piece
        new_facts[rel.name] = out
    return Instance(target.schema, new_facts), ProvenanceStore(store.mode, new_ann)


def _annotation_pieces(mode: str, ann) -> list:
    if ann is None:
        return []
    if mode == "how":
        pieces = []
        for mono, coeff in ann.monomials():
            for _ in range(coeff):
                pieces.append(Polynomial(((mono, 1),)))
        return pieces
    return [frozenset({w}) for w in sorted(ann, key=lambda w: sorted(
        t.sort_key() for t in w))]
