"""Homomorphism search and classification of reconstructions.

A homomorphism maps labeled nulls to constants or nulls (constants are rigid)
such that every fact of the domain instance lands, by value vector, on a fact
of the codomain instance.  Classification checks a reconstruction against the
original through a five-level lattice, strongest first:

=================== =========================================================
exact               identical instances (canonical comparison)
classical           equal up to a bijective renaming of nulls
tp_relaxed          homomorphism into the original, equal fact count,
                    exchange-equivalent
relaxed             homomorphism into the original, exchange-equivalent
result_equivalent   exchange-equivalent only
=================== =========================================================

Exchange equivalence chases both instances through the mapping and asks for
homomorphisms in both directions between the results.  Function terms in
heads are abstracted to fresh existential placeholders for this check, so
equivalence is judged on derivation structure rather than computed values
(otherwise any inverse that reintroduces nulls into function inputs could
never qualify).

Classification decides cheapest first: canonical equality, then
isomorphism, and only below ``classical`` the homomorphism searches, the
cardinality check and the exchange chases, whose flags the two top levels
imply.  Homomorphism and isomorphism search split the null-bearing facts
into blocks of shared nulls and solve each block with an explicit stack
over an index of candidate facts keyed by their known positions, so neither
is bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

import enum
import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .chase import chase
from .errors import SchemaMismatch
from .functions import FunctionRegistry
from .model import (
    Instance,
    Null,
    Value,
    holds_null,
    instances_equal,
    require_same_schema,
    schemas_equal,
    vector_counts,
)
from .tgds import Atom, FunctionTerm, SchemaMapping, StTgd, Term, Variable


class InverseType(enum.Enum):
    EXACT = "exact"
    CLASSICAL = "classical"
    TP_RELAXED = "tp_relaxed"
    RELAXED = "relaxed"
    RESULT_EQUIVALENT = "result_equivalent"
    NONE = "none"


_STRENGTH = {
    InverseType.EXACT: 5,
    InverseType.CLASSICAL: 4,
    InverseType.TP_RELAXED: 3,
    InverseType.RELAXED: 2,
    InverseType.RESULT_EQUIVALENT: 1,
    InverseType.NONE: 0,
}


def strength(t: InverseType) -> int:
    return _STRENGTH[t]


def at_least(achieved: InverseType, predicted: InverseType) -> bool:
    return strength(achieved) >= strength(predicted)


def weakest(types: Iterable[InverseType]) -> InverseType:
    """Minimum of the strength order; an empty sequence is vacuously exact."""
    out = InverseType.EXACT
    for t in types:
        if strength(t) < strength(out):
            out = t
    return out


@dataclass(frozen=True)
class Homomorphism:
    mapping: dict[int, Value]

    def apply(self, value: Value) -> Value:
        if isinstance(value, Null):
            return self.mapping.get(value.label, value)
        return value


def verify_homomorphism(hom: Homomorphism, src: Instance, dst: Instance) -> bool:
    for rel in src.schema.names():
        targets = {f.values for f in dst.facts(rel)}
        for fact in src.facts(rel):
            if tuple(hom.apply(v) for v in fact.values) not in targets:
                return False
    return True


def find_homomorphism(src: Instance, dst: Instance) -> Homomorphism | None:
    """Search for a homomorphism ``src -> dst``, block by block.

    Ground facts of ``src`` are checked by membership in ``dst``.  The facts
    that carry nulls split into blocks, the connected components of shared
    nulls (Fagin, Kolaitis & Popa, "Data exchange: getting to the core",
    TODS 2005): no null occurs in two blocks, so a homomorphism exists iff
    each block has one, and the blocks are solved one after another.  Each
    block is a depth-first search with an explicit stack, so its size is not
    bounded by the interpreter's recursion limit.  The decision (found / not
    found) is deterministic; the witness mapping is whatever the search finds
    first.
    """
    require_same_schema(src, dst)
    present = dict.fromkeys(
        (rel, f.values) for rel in dst.schema.names() for f in dst.facts(rel)
    )
    targets = list(present)
    pending: dict[tuple[str, tuple[Value, ...]], None] = {}
    for rel, fact in src.iter_facts():
        if any(isinstance(v, Null) for v in fact.values):
            pending[(rel, fact.values)] = None
        elif (rel, fact.values) not in present:
            return None
    index = _Index(targets)
    binding: dict[int, Value] = {}

    def candidates(step: _Step) -> list[int]:
        return index.lookup(step, binding)

    def extend(step: _Step, target: int, trail: list) -> bool:
        _, values, _, free = step
        image = targets[target][1]
        for p in free:
            label = values[p].label
            bound = binding.get(label)
            if bound is None:
                binding[label] = image[p]
                trail.append((binding, label))
            elif bound != image[p]:
                return False
        return True

    facts = list(pending)
    for block in _null_blocks(facts):
        if not _search(_plan([facts[i] for i in block]), candidates, extend):
            return None
    return Homomorphism(binding)


def isomorphic(a: Instance, b: Instance) -> bool:
    """Equality up to a bijective renaming of nulls: a one-to-one matching of
    facts per relation under a single null bijection.

    A bijection of nulls maps ground facts to themselves, so the ground facts
    of each relation must agree as multisets.  The null-bearing facts of
    ``a`` are then matched block by block with an explicit stack, keeping
    the null bijection in both directions, and a null maps only to a null
    of the same signature: the (relation, position) pairs it occurs at.
    Since a block holds every occurrence of its nulls, equal signatures
    force a matched block onto a whole connected component of ``b``; two
    blocks that match the same component are isomorphic to each other, so a
    block once matched never needs to be revisited.
    """
    require_same_schema(a, b)
    ground_a, rest_a = _split_ground(a)
    ground_b, rest_b = _split_ground(b)
    if ground_a != ground_b or len(rest_a) != len(rest_b):
        return False
    signature_a, signature_b = _null_signatures(rest_a), _null_signatures(rest_b)
    if dict(Counter(signature_a.values())) != dict(Counter(signature_b.values())):
        return False
    index = _Index(rest_b)
    fwd: dict[int, Null] = {}
    rev: dict[int, int] = {}
    taken: dict[int, bool] = {}

    def candidates(step: _Step) -> list[int]:
        return [i for i in index.lookup(step, fwd) if i not in taken]

    def extend(step: _Step, target: int, trail: list) -> bool:
        _, values, _, free = step
        image = rest_b[target][1]
        taken[target] = True
        trail.append((taken, target))
        for p in free:
            label, t = values[p].label, image[p]
            if not isinstance(t, Null):
                return False
            mapped = fwd.get(label)
            if mapped is None:
                if t.label in rev or signature_a[label] != signature_b[t.label]:
                    return False
                fwd[label] = t
                rev[t.label] = label
                trail.append((fwd, label))
                trail.append((rev, t.label))
            elif mapped != t:
                return False
        return True

    for block in _null_blocks(rest_a):
        if not _search(_plan([rest_a[i] for i in block]), candidates, extend):
            return False
    return True


# ---------------------------------------------------------------------------
# block-wise search

# One fact of a block, in search order: relation, values, the positions whose
# image is known when the fact is placed (constants, and nulls bound by
# earlier facts of the block), and the positions of nulls it binds.
_Step = tuple[str, tuple[Value, ...], tuple[int, ...], tuple[int, ...]]


def _split_ground(instance: Instance) -> tuple[dict[str, dict], list]:
    """Per-relation multisets of ground value vectors (``vector_counts``),
    and the null-bearing facts as (relation, values) pairs.  Facts are read
    one by one only in relations that hold a null."""
    ground: dict[str, dict] = {}
    rest: list[tuple[str, tuple[Value, ...]]] = []
    for rel in sorted(instance.schema.names()):
        facts = instance.facts(rel)
        if holds_null(facts):
            ground_facts = []
            for fact in facts:
                if any(type(v) is Null for v in fact.values):
                    rest.append((rel, fact.values))
                else:
                    ground_facts.append(fact)
            facts = ground_facts
        ground[rel] = vector_counts(facts)
    return ground, rest


def _null_signatures(facts: list[tuple[str, tuple[Value, ...]]]) -> dict[int, tuple]:
    """For each null, the sorted (relation, position) pairs it occurs at.  A
    null bijection that maps facts onto facts preserves them (so a chain's
    first null only maps to a first null)."""
    occurrences: dict[int, list[tuple[str, int]]] = {}
    for rel, values in facts:
        for p, v in enumerate(values):
            if isinstance(v, Null):
                occurrences.setdefault(v.label, []).append((rel, p))
    return {label: tuple(sorted(occ)) for label, occ in occurrences.items()}


def _null_blocks(facts: list[tuple[str, tuple[Value, ...]]]) -> list[list[int]]:
    """Indices of null-bearing facts grouped into connected components of
    shared nulls (union-find over null labels), in first-occurrence order."""
    parent: dict[int, int] = {}

    def find(label: int) -> int:
        root = label
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[label] != root:
            parent[label], label = root, parent[label]
        return root

    firsts = []
    for _, values in facts:
        labels = [v.label for v in values if isinstance(v, Null)]
        root = find(labels[0])
        for label in labels[1:]:
            other = find(label)
            if other != root:
                parent[other] = root
        firsts.append(labels[0])
    blocks: dict[int, list[int]] = {}
    for i, label in enumerate(firsts):
        blocks.setdefault(find(label), []).append(i)
    return list(blocks.values())


def _plan(block: list[tuple[str, tuple[Value, ...]]]) -> list[_Step]:
    """Order a block's facts greedily: next is the fact with the fewest nulls
    that no earlier fact binds (ties by position in the block), so that each
    lookup is keyed on as many known positions as possible."""
    nulls = [{v.label for v in values if isinstance(v, Null)} for _, values in block]
    holders: dict[int, list[int]] = {}
    for i, labels in enumerate(nulls):
        for label in labels:
            holders.setdefault(label, []).append(i)
    unbound = [len(labels) for labels in nulls]
    heap = [(n, i) for i, n in enumerate(unbound)]
    heapq.heapify(heap)
    placed = [False] * len(block)
    bound: set[int] = set()
    steps: list[_Step] = []
    while heap:
        n, i = heapq.heappop(heap)
        if placed[i] or n != unbound[i]:
            continue
        placed[i] = True
        rel, values = block[i]
        known = tuple(p for p, v in enumerate(values)
                      if not isinstance(v, Null) or v.label in bound)
        free = tuple(p for p, v in enumerate(values)
                     if isinstance(v, Null) and v.label not in bound)
        steps.append((rel, values, known, free))
        for label in nulls[i] - bound:
            bound.add(label)
            for j in holders[label]:
                if not placed[j]:
                    unbound[j] -= 1
                    heapq.heappush(heap, (unbound[j], j))
    return steps


class _Index:
    """Facts grouped by their values at a tuple of positions; one grouping
    per (relation, positions), built on first use."""

    def __init__(self, facts: list[tuple[str, tuple[Value, ...]]]):
        self._facts = facts
        self._by_relation: dict[str, list[int]] = {}
        for i, (rel, _) in enumerate(facts):
            self._by_relation.setdefault(rel, []).append(i)
        self._groups: dict[tuple, dict[tuple, list[int]]] = {}

    def lookup(self, step: _Step, image: dict[int, Value]) -> list[int]:
        """Facts that agree with ``step`` at its known positions, its nulls
        there read through ``image``."""
        rel, values, known, _ = step
        groups = self._groups.get((rel, known))
        if groups is None:
            groups = self._groups[(rel, known)] = {}
            for i in self._by_relation.get(rel, ()):
                vector = self._facts[i][1]
                groups.setdefault(tuple(vector[p] for p in known), []).append(i)
        key = tuple(image[v.label] if isinstance(v, Null) else v
                    for v in (values[p] for p in known))
        return groups.get(key, [])


def _search(steps: list[_Step], candidates, extend) -> bool:
    """Depth-first search over ``steps`` with an explicit stack.

    ``candidates(step)`` lists the targets a step may take under the current
    bindings; ``extend(step, target, trail)`` tries to take one, pushing a
    (dict, key) pair onto ``trail`` for every entry it sets.  Backtracking
    deletes the entries set since the step was entered.  On success the
    bindings of every step stay in place.
    """
    trail: list[tuple[dict, object]] = []
    options = [iter(candidates(steps[0]))]
    marks = [0]
    while True:
        depth = len(options) - 1
        for target in options[depth]:
            if extend(steps[depth], target, trail):
                break
            _undo(trail, marks[depth])
        else:
            options.pop()
            marks.pop()
            if not options:
                return False
            _undo(trail, marks[-1])
            continue
        if depth + 1 == len(steps):
            return True
        marks.append(len(trail))
        options.append(iter(candidates(steps[depth + 1])))


def _undo(trail: list[tuple[dict, object]], mark: int) -> None:
    while len(trail) > mark:
        table, key = trail.pop()
        del table[key]


# ---------------------------------------------------------------------------
# data exchange equivalence


def abstract_function_heads(mapping: SchemaMapping) -> SchemaMapping:
    """Replace every head function term with a fresh existential variable."""
    new_sigma = []
    for tgd in mapping.sigma:
        counter = 0
        changed = False
        new_head = []
        extra: set[str] = set()

        def rewrite(term: Term) -> Term:
            nonlocal counter, changed
            if isinstance(term, FunctionTerm):
                changed = True
                name = f"_f{counter}"
                counter += 1
                extra.add(name)
                return Variable(name)
            return term

        for atom in tgd.head:
            new_head.append(Atom(atom.relation, tuple(rewrite(t) for t in atom.terms)))
        if changed:
            new_sigma.append(
                StTgd(
                    body=tgd.body,
                    head=tuple(new_head),
                    conditions=tgd.conditions,
                    existential_vars=tgd.existential_vars | frozenset(extra),
                )
            )
        else:
            new_sigma.append(tgd)
    return SchemaMapping(mapping.source, mapping.target, tuple(new_sigma))


def data_exchange_equivalent(
    a: Instance,
    b: Instance,
    mapping: SchemaMapping,
    functions: FunctionRegistry | None = None,
) -> bool:
    """Chase both instances through the mapping (provenance off, independent
    fresh-null namespaces) and test homomorphic equivalence of the results."""
    require_same_schema(a, b)
    abstract = abstract_function_heads(mapping)
    ja, _ = chase(a, abstract, "none", functions)
    jb, _ = chase(b, abstract, "none", functions)
    if find_homomorphism(ja, jb) is None:
        return False
    return find_homomorphism(jb, ja) is not None


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    type: InverseType
    hom_forward: bool      # reconstructed -> original
    hom_backward: bool     # original -> reconstructed
    cardinality_equal: bool
    de_equivalent: bool

    def to_json(self) -> dict:
        return {
            "type": self.type.value,
            "hom_forward": self.hom_forward,
            "hom_backward": self.hom_backward,
            "cardinality_equal": self.cardinality_equal,
            "de_equivalent": self.de_equivalent,
        }


def classify_report(
    original: Instance,
    reconstructed: Instance,
    mapping: SchemaMapping,
    functions: FunctionRegistry | None = None,
) -> Classification:
    """Classify ``reconstructed`` against ``original``, cheapest test first.

    ``exact`` (canonical equality) is tested first, then ``classical``
    (isomorphism); only when both fail are the two homomorphism searches,
    the cardinality check and the data-exchange chases run.  For ``exact``
    and ``classical`` all four flags are implied true without computing
    them: the two instances are equal up to a bijection of nulls (the
    identity, or the isomorphism).  That bijection is a homomorphism each
    way, and it preserves fact counts.  The data-exchange chase is invariant
    under it: ``conditions_hold`` is false on any null operand, a body
    constant never matches a null, shared body variables compare nulls by
    identity, which a bijection preserves, and head functions are
    abstracted to fresh nulls.  So both chases fire corresponding triggers
    and their results are again equal up to a bijection of nulls, hence
    homomorphically equivalent.  The mapping's source schema is checked up
    front, so a mismatched mapping is rejected even when the chases are
    skipped.
    """
    require_same_schema(original, reconstructed)
    if not schemas_equal(original.schema, mapping.source):
        raise SchemaMismatch(
            f"instance schema {original.schema.names()} does not match the "
            f"mapping source {mapping.source.names()}"
        )
    if instances_equal(reconstructed, original):
        return Classification(InverseType.EXACT, True, True, True, True)
    if isomorphic(reconstructed, original):
        return Classification(InverseType.CLASSICAL, True, True, True, True)
    hom_fwd = find_homomorphism(reconstructed, original) is not None
    hom_bwd = find_homomorphism(original, reconstructed) is not None
    card = reconstructed.size() == original.size()
    de = data_exchange_equivalent(original, reconstructed, mapping, functions)
    if hom_fwd and card and de:
        t = InverseType.TP_RELAXED
    elif hom_fwd and de:
        t = InverseType.RELAXED
    elif de:
        t = InverseType.RESULT_EQUIVALENT
    else:
        t = InverseType.NONE
    return Classification(t, hom_fwd, hom_bwd, card, de)


def classify(
    original: Instance,
    reconstructed: Instance,
    mapping: SchemaMapping,
    functions: FunctionRegistry | None = None,
) -> InverseType:
    """Strongest inverse type whose condition holds for the pair."""
    return classify_report(original, reconstructed, mapping, functions).type
