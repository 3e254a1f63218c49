"""End-to-end evolution runs and their inversion.

``evolve`` chases a script of schema-modification operators over an instance,
recording per step the forward mapping, the produced instance, the provenance
store and any side tables.  ``backchase`` walks the steps in reverse,
executing each step's inverse plan (inverse dependencies run on the same
chase engine, followed by the plan's post-steps), classifies each partial
reconstruction against that step's source, and reports the composition: the
weakest per-step type.

Inverse execution consults only the step's own store.  When the instance
entering a step's inversion is not literally that step's recorded output
(later inversions may have been lossy), annotations are re-attached by value
vector; rows that no longer match silently lose their annotations and the
plan degrades accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import (
    Classification,
    InverseType,
    at_least,
    classify_report,
    weakest,
)
from .catalog import (
    InversePlan,
    RestrictByOrigin,
    SmoSpec,
    compile_forward,
    compile_inverse,
    instance_features,
    inverse_function_ready,
    side_table_specs,
)
from .chase import (
    chase,
    evaluate_term,
    expand_duplicates,
    matched_source_ids,
    sorted_facts,
)
from .errors import ValidationError
from .functions import FunctionRegistry, default_registry
from .model import (
    Fact,
    IdAllocator,
    Instance,
    NullAllocator,
    TupleId,
    relation_tag,
    seed_allocators,
)
from .provenance import (
    ProvenanceStore,
    SideTable,
    build_side_table,
    check_mode,
)
from .tgds import SchemaMapping


@dataclass
class EvolutionStep:
    index: int
    smo: SmoSpec
    mapping: SchemaMapping
    source: Instance
    target: Instance
    store: ProvenanceStore
    side_tables: dict[str, SideTable] = field(default_factory=dict)


@dataclass
class EvolutionRun:
    provenance_mode: str
    side_tables_enabled: bool
    script: list[SmoSpec]
    initial: Instance
    steps: list[EvolutionStep]

    @property
    def final(self) -> Instance:
        return self.steps[-1].target if self.steps else self.initial


def evolve(
    instance: Instance,
    script: list[SmoSpec],
    provenance_mode: str = "none",
    build_side_tables: bool = False,
    functions: FunctionRegistry | None = None,
) -> EvolutionRun:
    """Chase every script step in order, threading instances through."""
    check_mode(provenance_mode)
    if build_side_tables and provenance_mode == "none":
        raise ValidationError(
            "side tables only exist in association with provenance; "
            "pick a provenance mode"
        )
    functions = functions or default_registry()
    nulls, ids = seed_allocators(instance)
    steps: list[EvolutionStep] = []
    current = instance
    for i, smo in enumerate(script):
        try:
            forward = compile_forward(smo, current.schema)
            specs = side_table_specs(smo, current.schema) if build_side_tables else ()
        except ValidationError as exc:
            raise ValidationError(f"step {i} ({smo.kind}): {exc}") from exc
        side_tables: dict[str, SideTable] = {}
        matched = None
        for spec in specs:
            if spec.kind == "dangling" and matched is None:
                matched = matched_source_ids(current, forward)
            side_tables[spec.name] = build_side_table(current, spec, matched)
        target, store = chase(current, forward, provenance_mode, functions,
                              nulls, ids)
        steps.append(EvolutionStep(i, smo, forward, current, target, store,
                                   side_tables))
        current = target
    return EvolutionRun(provenance_mode, build_side_tables, list(script),
                        instance, steps)


# ---------------------------------------------------------------------------
# inverse plan execution


def _attach_store(j: Instance, step: EvolutionStep) -> ProvenanceStore:
    """Re-key the step's forward annotations onto the instance actually being
    inverted, matching facts by value vector."""
    if j is step.target:
        return step.store
    forward = step.store.annotations
    by_vector = {}
    for rel, fact in step.target.iter_facts():
        ann = forward.get(fact.id)
        if ann is not None:
            by_vector[(rel, fact.values)] = ann
    annotations = {}
    for rel, fact in j.iter_facts():
        ann = by_vector.get((rel, fact.values))
        if ann is not None:
            annotations[fact.id] = ann
    return ProvenanceStore(step.store.mode, annotations)


def _run_lookups(
    plan: InversePlan,
    j: Instance,
    store: ProvenanceStore,
    step: EvolutionStep,
    functions: FunctionRegistry,
    ids: IdAllocator,
) -> dict[str, list[Fact]]:
    """Reconstruction rules that bind existential variables from side-table
    rows selected by witness ids.  A rule's body is one atom of distinct
    variables, so each fact binds them in order."""
    extra: dict[str, list[Fact]] = {}
    for rule in plan.lookups:
        table = step.side_tables[rule.spec.name]
        refs = {row.ref: row for row in table.rows}
        positions = [(var, table.attributes.index(attr))
                     for var, attr in rule.bindings.items()]
        body_atom = rule.tgd.body[0]
        names = [t.name for t in body_atom.terms]
        for fact in sorted_facts(j, body_atom.relation):
            basis = store.witnesses(fact.id)
            if basis is None:
                continue
            bindings = dict(zip(names, fact.values))
            for witness in sorted(basis, key=lambda w: sorted(
                    t.sort_key() for t in w)):
                for tid in sorted(witness, key=lambda t: t.sort_key()):
                    row = refs.get(tid)
                    if row is None:
                        continue
                    full = dict(bindings)
                    for var, pos in positions:
                        full[var] = row.values[pos]
                    for atom in rule.tgd.head:
                        values = tuple(
                            evaluate_term(t, full, functions) for t in atom.terms
                        )
                        tid_new = ids.fresh(relation_tag(atom.relation))
                        extra.setdefault(atom.relation, []).append(
                            Fact(tid_new, values)
                        )
    return extra


def _origin_sets(store: ProvenanceStore, tid: TupleId) -> frozenset[TupleId]:
    basis = store.witnesses(tid)
    if basis is None:
        return frozenset()
    return frozenset(t for w in basis for t in w)


def _apply_restrict(
    restrict: RestrictByOrigin,
    reconstructed: dict[str, list[Fact]],
    inv_store: ProvenanceStore,
    forward_store: ProvenanceStore,
    step: EvolutionStep,
    ids: IdAllocator,
) -> None:
    src_rel_of = {f.id: rel for rel, f in step.source.iter_facts()}
    for rel in restrict.relations:
        kept: list[Fact] = []
        for fact in reconstructed.get(rel, []):
            ann = inv_store.annotations.get(fact.id)
            if ann is None:
                continue
            if restrict.kind == "per_relation":
                if _passes_per_relation(rel, ann, forward_store, src_rel_of):
                    kept.append(fact)
            else:
                count = _common_origin_count(ann, forward_store)
                for _ in range(count):
                    kept.append(Fact(ids.fresh(relation_tag(rel)), fact.values))
        reconstructed[rel] = kept


def _passes_per_relation(rel: str, inv_ann, forward_store: ProvenanceStore,
                         src_rel_of: dict[TupleId, str]) -> bool:
    for mono, _ in inv_ann.monomials():
        for j_id in mono:
            if forward_store.mode == "where":
                names = forward_store.relation_names(j_id)
                if names is not None and rel in names:
                    return True
            else:
                basis = forward_store.witnesses(j_id)
                for witness in basis or ():
                    if witness and all(
                        src_rel_of.get(t) == rel for t in witness
                    ):
                        return True
    return False


def _common_origin_count(inv_ann, forward_store: ProvenanceStore) -> int:
    origins: set[TupleId] = set()
    for mono, _ in inv_ann.monomials():
        shared: frozenset[TupleId] | None = None
        for j_id in mono:
            ids_of = _origin_sets(forward_store, j_id)
            shared = ids_of if shared is None else (shared & ids_of)
        if shared:
            origins.update(shared)
    return len(origins)


def _run_appends(
    plan: InversePlan,
    step: EvolutionStep,
    target_schema,
    nulls: NullAllocator,
    ids: IdAllocator,
) -> dict[str, list[Fact]]:
    extra: dict[str, list[Fact]] = {}
    for append in plan.appends:
        table = step.side_tables[append.spec.name]
        rel = target_schema.relation(append.spec.relation)
        positions = [table.attributes.index(attr) if attr in table.attributes
                     else None for attr in rel.attributes]
        for row in table.rows:
            values = [nulls.fresh() if pos is None else row.values[pos]
                      for pos in positions]
            extra.setdefault(rel.name, []).append(
                Fact(ids.fresh(relation_tag(rel.name)), tuple(values))
            )
    return extra


def execute_plan(
    plan: InversePlan,
    step: EvolutionStep,
    j: Instance,
    functions: FunctionRegistry,
    nulls: NullAllocator,
    ids: IdAllocator,
) -> Instance:
    """Run one step's inverse as compiled (a plan holds a post-step only at
    a level whose store holds what it reads): optional duplicate expansion,
    the inverse dependencies on the chase engine, then side lookups, origin
    restriction and side-table appends."""
    store = _attach_store(j, step)
    if plan.expand_before:
        j, store = expand_duplicates(j, store, ids)

    # only the origin restriction reads the inverse chase's provenance; the
    # facts, ids and nulls the chase makes do not depend on the mode
    mode = "how" if plan.restrict is not None else "none"
    reconstructed_inst, inv_store = chase(j, plan.mapping, mode, functions, nulls, ids)
    reconstructed = {
        rel: list(reconstructed_inst.facts(rel))
        for rel in reconstructed_inst.schema.names()
    }

    if plan.restrict is not None:
        _apply_restrict(plan.restrict, reconstructed, inv_store, store, step, ids)

    for rel, facts in _run_lookups(plan, j, store, step, functions, ids).items():
        reconstructed.setdefault(rel, []).extend(facts)

    target_schema = plan.mapping.target
    for rel, facts in _run_appends(plan, step, target_schema, nulls, ids).items():
        reconstructed.setdefault(rel, []).extend(facts)

    return Instance(target_schema, reconstructed)


# ---------------------------------------------------------------------------
# backchase and reporting


@dataclass
class StepInversion:
    index: int
    smo: SmoSpec
    plan: InversePlan
    reconstructed: Instance
    classification: Classification
    achieved: InverseType
    predicted: InverseType

    @property
    def meets_prediction(self) -> bool:
        return at_least(self.achieved, self.predicted)


@dataclass
class BackchaseResult:
    instance: Instance
    steps: list[StepInversion]  # script order
    composed: InverseType
    composed_predicted: InverseType

    @property
    def composed_meets(self) -> bool:
        return at_least(self.composed, self.composed_predicted)


def backchase(
    run: EvolutionRun,
    functions: FunctionRegistry | None = None,
    restrict_to: Instance | None = None,
) -> BackchaseResult:
    """Invert a run step by step, classifying each partial reconstruction.

    A step whose plan is flagged potentially-non-invertible contributes type
    ``none`` regardless of what its best-effort execution reconstructs, and
    the composed type is the weakest per-step type.

    ``restrict_to`` replaces the final instance with a value-level subset of
    it before inverting; classifications of a restricted run are advisory
    (predictions assume the whole instance comes back).
    """
    functions = functions or default_registry()
    instances = [run.initial] + [s.target for s in run.steps]
    current = run.final
    if restrict_to is not None:
        _check_subset(restrict_to, run.final)
        instances.append(restrict_to)
        current = restrict_to
    nulls, ids = seed_allocators(*instances)
    inversions: list[StepInversion] = []
    for step in reversed(run.steps):
        side_avail = run.side_tables_enabled and bool(step.side_tables)
        invfn = inverse_function_ready(step.smo, step.source.schema, functions)
        plan = compile_inverse(
            step.smo,
            step.source.schema,
            run.provenance_mode,
            side_tables_available=side_avail,
            inverse_function_available=invfn,
        )
        reconstructed = execute_plan(plan, step, current, functions, nulls, ids)
        classification = classify_report(step.source, reconstructed,
                                         step.mapping, functions)
        achieved = InverseType.NONE if plan.flagged_non_invertible else classification.type
        predicted = plan.predicted(
            instance_features(step.smo, step.source, functions))
        inversions.append(StepInversion(step.index, step.smo, plan,
                                        reconstructed, classification,
                                        achieved, predicted))
        current = reconstructed
    inversions.reverse()
    composed = weakest(s.achieved for s in inversions)
    composed_predicted = weakest(s.predicted for s in inversions)
    return BackchaseResult(current, inversions, composed, composed_predicted)


def _check_subset(part: Instance, whole: Instance) -> None:
    from .model import require_same_schema

    require_same_schema(part, whole)
    for rel in part.schema.names():
        available = {f.values for f in whole.facts(rel)}
        for fact in part.facts(rel):
            if fact.values not in available:
                raise ValidationError(
                    f"restriction row {fact.id} in {rel} is not part of the "
                    f"run's final instance"
                )


def roundtrip_report(
    instance: Instance,
    script: list[SmoSpec],
    provenance_mode: str = "none",
    build_side_tables: bool = False,
    functions: FunctionRegistry | None = None,
) -> dict:
    """Evolve, invert, and emit the classification report as JSON data."""
    run = evolve(instance, script, provenance_mode, build_side_tables, functions)
    result = backchase(run, functions)
    return {
        "provenance_mode": provenance_mode,
        "side_tables": build_side_tables,
        "steps": [step_report(s) for s in result.steps],
        "composed": {
            "type": result.composed.value,
            "predicted": result.composed_predicted.value,
            "meets_prediction": result.composed_meets,
        },
    }


def step_report(s: StepInversion) -> dict:
    report = s.classification.to_json()
    report["type"] = s.achieved.value
    report.update({
        "step": s.index,
        "kind": s.smo.kind,
        "predicted": s.predicted.value,
        "meets_prediction": s.meets_prediction,
        "post_steps": list(s.plan.post_steps()),
        "flagged_non_invertible": s.plan.flagged_non_invertible,
    })
    if s.plan.notes:
        report["notes"] = list(s.plan.notes)
    return report
