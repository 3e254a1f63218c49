"""The chase: apply a schema mapping's dependencies to an instance.

Since every dependency reads the source schema and writes the target schema,
one pass over all triggers terminates.  Trigger order is deterministic: tgds
in declaration order, body matches in canonical fact order (value-vector sort,
then tuple id), nested left to right over the body atoms.  Each body atom
after the first is looked up in a hash index on the positions the atoms
before it fix, through shared variables or ``=`` conditions between
variables.  The index skips facts that cannot match but keeps canonical order
inside each bucket, so the triggers that fire, and their order, are those of
the plain nested loop.

Each trigger allocates one fresh null per existential variable, evaluates
function terms over bound constants, and emits its head atoms.  Output facts
with identical value vectors in one relation are merged.  Their annotations
are summed once per fact, after all triggers ran, in the requested provenance
mode; each trigger contributes the product of the body facts it matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .errors import ChaseError, SchemaMismatch
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
    fact_sort_key,
    relation_tag,
    schemas_equal,
    seed_allocators,
)
from .provenance import Polynomial, ProvenanceStore, check_mode, poly_add
from .tgds import Atom, Comparison, SchemaMapping, StTgd, Term, Variable

Bindings = dict[str, Value]


def sorted_facts(instance: Instance, relation: str) -> list[Fact]:
    """One relation's facts in canonical order: value vector, then tuple id."""
    return sorted(instance.facts(relation), key=fact_sort_key)


def _sorted_facts(instance: Instance) -> dict[str, list[Fact]]:
    return {rel: sorted_facts(instance, rel) for rel in instance.schema.names()}


def _unify_atom(atom: Atom, fact: Fact, bindings: Bindings) -> Bindings | None:
    """Extend ``bindings`` so that ``atom`` maps onto ``fact``, or None.  The
    dict is copied only when the atom binds a new variable, so a caller must
    not mutate what it gets back."""
    out = bindings
    for term, value in zip(atom.terms, fact.values):
        if isinstance(term, Variable):
            bound = out.get(term.name)
            if bound is None:
                if out is bindings:
                    out = dict(bindings)
                out[term.name] = value
            elif bound != value:
                return None
        elif isinstance(term, Constant):
            if term != value:
                return None
        else:
            raise ChaseError("function terms cannot appear in a body atom")
    return out


@dataclass(frozen=True)
class _AtomKey:
    """The positions of one body atom that earlier atoms fix, and the
    variables whose bindings supply the values there.  ``strict`` holds the
    positions fixed only through an ``=`` condition: a null there can never
    satisfy the condition, so facts with one are left out of the index."""

    positions: tuple[int, ...]
    sources: tuple[str, ...]
    strict: tuple[int, ...]


@lru_cache(maxsize=1024)
def _join_plan(tgd: StTgd) -> tuple[_AtomKey, ...]:
    """Per body atom, the key it is looked up by once the atoms before it
    are matched; the first atom is scanned."""
    equal: dict[str, list[str]] = {}
    for cond in tgd.conditions:
        if (cond.op == "=" and isinstance(cond.left, Variable)
                and isinstance(cond.right, Variable)):
            equal.setdefault(cond.left.name, []).append(cond.right.name)
            equal.setdefault(cond.right.name, []).append(cond.left.name)
    plan = []
    bound: set[str] = set()
    for atom in tgd.body:
        positions: list[int] = []
        sources: list[str] = []
        strict: list[int] = []
        keyed: set[str] = set()
        for pos, term in enumerate(atom.terms):
            if not isinstance(term, Variable) or term.name in keyed:
                continue
            if term.name in bound:
                source = term.name
            else:
                source = next((v for v in equal.get(term.name, ())
                               if v in bound), None)
                if source is None:
                    continue
                strict.append(pos)
            keyed.add(term.name)
            positions.append(pos)
            sources.append(source)
        plan.append(_AtomKey(tuple(positions), tuple(sources), tuple(strict)))
        bound.update(t.name for t in atom.terms if isinstance(t, Variable))
    return tuple(plan)


def _index(facts: Sequence[Fact], key: _AtomKey) -> dict[tuple, list[Fact]]:
    buckets: dict[tuple, list[Fact]] = {}
    for fact in facts:
        values = fact.values
        if any(isinstance(values[p], Null) for p in key.strict):
            continue
        buckets.setdefault(tuple(values[p] for p in key.positions), []).append(fact)
    return buckets


def iter_body_matches(
    tgd: StTgd, facts: Mapping[str, Sequence[Fact]]
) -> Iterator[tuple[Bindings, tuple[Fact, ...]]]:
    """Body matches in deterministic order: the nested loop over the body
    atoms, left to right, each over its facts in the given order.

    Every atom after the first is looked up in a hash index on the positions
    that earlier atoms fix, through a shared variable or an ``=`` condition
    between variables.  Buckets keep the given fact order, so the matches
    come out in nested-loop order, less those an ``=`` condition between
    atoms rules out.  Other conditions are not applied: the caller still
    runs ``conditions_hold`` on every match."""
    plan = _join_plan(tgd)
    pools = []
    for atom, key in zip(tgd.body, plan):
        relation_facts = facts.get(atom.relation, ())
        pools.append(_index(relation_facts, key) if key.positions
                     else relation_facts)

    def recurse(i: int, bindings: Bindings,
                used: tuple[Fact, ...]) -> Iterator[tuple[Bindings, tuple[Fact, ...]]]:
        if i == len(tgd.body):
            yield bindings, used
            return
        atom, key, pool = tgd.body[i], plan[i], pools[i]
        if key.positions:
            pool = pool.get(tuple(bindings[v] for v in key.sources), ())
        for fact in pool:
            nxt = _unify_atom(atom, fact, bindings)
            if nxt is not None:
                yield from recurse(i + 1, nxt, used + (fact,))

    yield from recurse(0, {}, ())


def _resolve_comparable(term: Term, bindings: Bindings) -> Value:
    if isinstance(term, Variable):
        return bindings[term.name]
    if isinstance(term, Constant):
        return term
    raise ChaseError("comparisons cannot contain function terms")


def conditions_hold(conditions: Sequence[Comparison], bindings: Bindings) -> bool:
    """Evaluate comparison conditions; any null operand makes the trigger
    non-matching (three-valued logic collapsed to false)."""
    for cond in conditions:
        left = _resolve_comparable(cond.left, bindings)
        right = _resolve_comparable(cond.right, bindings)
        if isinstance(left, Null) or isinstance(right, Null):
            return False
        if cond.op == "=":
            ok = left == right
        else:
            lk, rk = constant_order_key(left), constant_order_key(right)
            ok = {
                "<": lk < rk,
                "<=": lk <= rk,
                ">": lk > rk,
                ">=": lk >= rk,
            }[cond.op]
        if not ok:
            return False
    return True


def evaluate_term(term: Term, bindings: Bindings,
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


class _OutputRelation:
    """Accumulates one relation's chase output, merging equal value vectors;
    ``derivations`` holds, per output fact, the body facts of each trigger
    that produced it."""

    def __init__(self, tag: str, ids: IdAllocator):
        self.tag = tag
        self.ids = ids
        self.order: list[tuple[Value, ...]] = []
        self.by_vector: dict[tuple[Value, ...], TupleId] = {}
        self.derivations: dict[TupleId, list[tuple[Fact, ...]]] = {}

    def facts(self) -> list[Fact]:
        return [Fact(self.by_vector[vec], vec) for vec in self.order]


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
    outputs = {
        rel.name: _OutputRelation(relation_tag(rel.name), ids)
        for rel in mapping.target.relations
    }

    for tgd in mapping.sigma:
        existential = tgd.existential_order()
        for bindings, used in iter_body_matches(tgd, facts):
            if not conditions_hold(tgd.conditions, bindings):
                continue
            full = dict(bindings)
            for var in existential:
                full[var] = nulls.fresh()
            emitted: set[tuple[str, tuple[Value, ...]]] = set()
            for atom in tgd.head:
                vector = tuple(
                    evaluate_term(t, full, functions) for t in atom.terms
                )
                if (atom.relation, vector) in emitted:
                    continue
                emitted.add((atom.relation, vector))
                _add_output(outputs[atom.relation], vector, provenance_mode,
                            used)

    result = Instance(
        mapping.target, {name: out.facts() for name, out in outputs.items()}
    )
    rel_of = ({f.id: rel for rel, flist in facts.items() for f in flist}
              if provenance_mode == "where" else {})
    annotations: dict[TupleId, object] = {}
    for out in outputs.values():
        for tid, derivations in out.derivations.items():
            annotations[tid] = _annotation(provenance_mode, derivations, rel_of)
    return result, ProvenanceStore(provenance_mode, annotations)


def _add_output(out: _OutputRelation, vector: tuple[Value, ...], mode: str,
                witness: tuple[Fact, ...]) -> None:
    tid = out.by_vector.get(vector)
    if tid is None:
        tid = out.ids.fresh(out.tag)
        out.by_vector[vector] = tid
        out.order.append(vector)
    if mode != "none":
        out.derivations.setdefault(tid, []).append(witness)


def _annotation(mode: str, derivations: list[tuple[Fact, ...]],
                rel_of: dict[TupleId, str]):
    """Sum a fact's derivations once, in the store's mode; each derivation
    is the product of the body facts its trigger matched."""
    if mode == "how":
        return poly_add(*(Polynomial.of(*(f.id for f in witness))
                          for witness in derivations))
    if mode == "why":
        return frozenset(frozenset(f.id for f in witness) for witness in derivations)
    return frozenset(rel_of[f.id] for witness in derivations for f in witness)


def matched_source_ids(instance: Instance, mapping: SchemaMapping) -> frozenset[TupleId]:
    """Ids of source facts that participate in at least one trigger."""
    facts = _sorted_facts(instance)
    used: set[TupleId] = set()
    for tgd in mapping.sigma:
        for bindings, witness in iter_body_matches(tgd, facts):
            if conditions_hold(tgd.conditions, bindings):
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
    from .errors import ProvenanceError

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
