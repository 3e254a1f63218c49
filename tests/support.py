"""Shared test helpers: instance builders, random generators, and brute-force
oracles kept independent of the code paths they check."""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

from backchase import (
    Classification,
    Constant,
    Fact,
    Instance,
    InverseType,
    Null,
    RelationSchema,
    Schema,
    SmoSpec,
    TupleId,
    const,
    data_exchange_equivalent,
    find_homomorphism,
    instances_equal,
    isomorphic,
    null,
)
from backchase.chase import evaluate_term
from backchase.functions import FunctionRegistry, default_registry
from backchase.model import (
    IdAllocator,
    NullAllocator,
    constant_order_key,
    relation_tag,
)
from backchase.provenance import Polynomial, ProvenanceStore
from backchase.tgds import (
    Atom,
    Comparison,
    SchemaMapping,
    StTgd,
    Variable,
    format_tgd,
)

TEXT_POOL = ("a", "b", "c", "d", "e", "f")
NUM_POOL = ("1.0", "2.5", "3.0", "4.5", "5.0", "6.5")


def reserve(ids: IdAllocator, tid: TupleId) -> None:
    """Make ``ids`` continue after ``tid`` within its tag: allocator seeding
    one id at a time, independent of ``model.seed_allocators``."""
    if tid.ordinal > ids._last.get(tid.tag, 0):
        ids._last[tid.tag] = tid.ordinal


def eval_all_ones(poly: Polynomial) -> int:
    """A how-provenance polynomial evaluated with every tuple id set to 1:
    the number of derivations it sums."""
    return sum(coeff for _, coeff in poly.terms)


def mapping_to_json(mapping: SchemaMapping) -> dict:
    """The JSON form ``storage.load_mapping`` reads."""
    def schema(s: Schema) -> dict:
        return {"relations": [{"name": r.name, "attributes": list(r.attributes)}
                              for r in s.relations]}
    return {"source": schema(mapping.source), "target": schema(mapping.target),
            "tgds": [format_tgd(t) for t in mapping.sigma]}


def inst(schema: Schema, **rows: Sequence[Sequence[str]]) -> Instance:
    """Build an instance from lexical rows; ids are <tag>1, <tag>2, ..."""
    facts = {}
    for rel, vectors in rows.items():
        tag = relation_tag(rel)
        facts[rel] = [
            Fact(TupleId(tag, i + 1), tuple(const(v) for v in vector))
            for i, vector in enumerate(vectors)
        ]
    return Instance(schema, facts)


def vectors_of(instance: Instance, rel: str) -> list[tuple]:
    return sorted(
        (tuple(getattr(v, "lexical", None) or f"?{v.label}" for v in f.values)
         for f in instance.facts(rel)),
    )


def random_ground_instance(
    rng: random.Random,
    schema: Schema,
    max_rows: int = 12,
    pools: dict[tuple[str, str], Sequence[str]] | None = None,
    default_pool: Sequence[str] = TEXT_POOL,
) -> Instance:
    """Distinct-valued random rows per relation; the small symbol pool makes
    operator-induced duplicates and danglings likely."""
    pools = pools or {}
    facts = {}
    budget = max_rows
    for rel in schema.relations:
        k = rng.randint(1, max(1, min(4, budget)))
        budget = max(1, budget - k)
        seen = set()
        entries = []
        for _ in range(k):
            vec = tuple(
                const(rng.choice(pools.get((rel.name, a), default_pool)))
                for a in rel.attributes
            )
            if vec in seen:
                continue
            seen.add(vec)
            entries.append(Fact(TupleId(relation_tag(rel.name), len(entries) + 1), vec))
        facts[rel.name] = entries
    return Instance(schema, facts)


# ---------------------------------------------------------------------------
# the value layer written plainly, value by value


def value_key(value) -> tuple:
    """Canonical value order: constants before nulls, constants by lexical
    form, nulls by label."""
    if isinstance(value, Constant):
        return (0, value.lexical)
    return (1, value.label)


def fact_key(fact: Fact) -> tuple:
    """Canonical fact order: value vector, then tuple id (tag, ordinal)."""
    return (tuple(value_key(v) for v in fact.values), (fact.id.tag, fact.id.ordinal))


def instance_error(schema: Schema, facts) -> str | None:
    """The message of the first error ``Instance(schema, facts)`` must
    raise, checking fact by fact (arity, then a repeated id) in schema
    order and then the relations the schema lacks; None when it must not
    raise."""
    seen = []  # compared by equality alone, not by hash
    for rel in schema.relations:
        for fact in facts.get(rel.name, ()):
            if len(fact.values) != rel.arity:
                return (f"fact {fact.id} has arity {len(fact.values)}, "
                        f"relation {rel.name} expects {rel.arity}")
            if fact.id in seen:
                return f"duplicate tuple id {fact.id} in instance"
            seen.append(fact.id)
    unknown = set(facts) - set(schema.names())
    if unknown:
        return f"facts for relations not in schema: {sorted(unknown)}"
    return None


# ---------------------------------------------------------------------------
# independent brute-force oracles


def brute_force_hom_exists(src: Instance, dst: Instance) -> bool:
    """Enumerate every assignment of src's nulls to values occurring in dst."""
    labels = sorted({
        v.label for _, f in src.iter_facts() for v in f.values
        if isinstance(v, Null)
    })
    dst_vectors = {
        rel: {f.values for f in dst.facts(rel)} for rel in dst.schema.names()
    }
    candidates = sorted(
        {v for _, f in dst.iter_facts() for v in f.values},
        key=value_key,
    )
    if not labels:
        return all(
            f.values in dst_vectors[rel] for rel, f in src.iter_facts()
        )
    if not candidates:
        return src.size() == 0
    for combo in itertools.product(candidates, repeat=len(labels)):
        assignment = dict(zip(labels, combo))
        ok = True
        for rel, f in src.iter_facts():
            mapped = tuple(
                assignment[v.label] if isinstance(v, Null) else v
                for v in f.values
            )
            if mapped not in dst_vectors[rel]:
                ok = False
                break
        if ok:
            return True
    return False


def brute_force_isomorphic(a: Instance, b: Instance) -> bool:
    """Try every bijection between the nulls of ``a`` and those of ``b`` and
    compare the renamed value-vector multisets per relation."""
    def nulls_of(instance: Instance) -> list[int]:
        return sorted({v.label for _, f in instance.iter_facts()
                       for v in f.values if isinstance(v, Null)})

    def vectors(instance: Instance, rename) -> dict[str, list]:
        return {
            rel: sorted(
                (tuple(rename(v) for v in f.values) for f in instance.facts(rel)),
                key=lambda vs: tuple(map(value_key, vs)),
            )
            for rel in instance.schema.names()
        }

    labels_a, labels_b = nulls_of(a), nulls_of(b)
    if len(labels_a) != len(labels_b):
        return False
    target = vectors(b, lambda v: v)
    for image in itertools.permutations(labels_b):
        renaming = dict(zip(labels_a, image))
        renamed = vectors(a, lambda v: Null(renaming[v.label])
                          if isinstance(v, Null) else v)
        if renamed == target:
            return True
    return False


def classify_report_reference(original: Instance, reconstructed: Instance,
                              mapping: SchemaMapping) -> Classification:
    """The classifier without short-circuits: all four flags are computed
    for every pair, and the type is read off them strongest first.  It
    reuses the library's equality, isomorphism, homomorphism and exchange
    checks, so what it checks is the order in which they are skipped."""
    hom_fwd = find_homomorphism(reconstructed, original) is not None
    hom_bwd = find_homomorphism(original, reconstructed) is not None
    card = reconstructed.size() == original.size()
    de = data_exchange_equivalent(original, reconstructed, mapping)
    if instances_equal(reconstructed, original):
        t = InverseType.EXACT
    elif isomorphic(reconstructed, original):
        t = InverseType.CLASSICAL
    elif hom_fwd and card and de:
        t = InverseType.TP_RELAXED
    elif hom_fwd and de:
        t = InverseType.RELAXED
    elif de:
        t = InverseType.RESULT_EQUIVALENT
    else:
        t = InverseType.NONE
    return Classification(t, hom_fwd, hom_bwd, card, de)


def naive_trigger_matches(instance: Instance, mapping: SchemaMapping):
    """Plain nested-loop trigger enumeration, written independently of the
    engine: yields (tgd, bindings, matched facts) for every satisfied body."""
    for tgd in mapping.sigma:
        pools = [list(instance.facts(a.relation)) for a in tgd.body]
        for combo in itertools.product(*pools):
            bindings: dict[str, object] = {}
            ok = True
            for atom, fact in zip(tgd.body, combo):
                for term, value in zip(atom.terms, fact.values):
                    if isinstance(term, Variable):
                        if term.name in bindings and bindings[term.name] != value:
                            ok = False
                            break
                        bindings[term.name] = value
                    elif term != value:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            if not _naive_conditions(tgd.conditions, bindings):
                continue
            yield tgd, bindings, combo


def _naive_conditions(conditions, bindings) -> bool:
    for cond in conditions:
        left = bindings[cond.left.name] if isinstance(cond.left, Variable) else cond.left
        right = bindings[cond.right.name] if isinstance(cond.right, Variable) else cond.right
        if isinstance(left, Null) or isinstance(right, Null):
            return False
        if cond.op == "=":
            if left != right:
                return False
        else:
            lk, rk = constant_order_key(left), constant_order_key(right)
            if not {"<": lk < rk, "<=": lk <= rk,
                    ">": lk > rk, ">=": lk >= rk}[cond.op]:
                return False
    return True


def chase_reference(instance: Instance, mapping: SchemaMapping, mode: str,
                    functions: FunctionRegistry | None = None):
    """The chase done the straightforward way: every trigger of the plain
    nested loop over canonically laid-out facts, in that order; one fresh
    null per existential variable; head terms evaluated one by one; equal
    vectors merged into the first fact that carried them; and each fact's
    annotation a left fold of its derivations, pairwise canonicalizing sums
    for how-provenance.  Null labels and tuple ids continue after the
    largest ones in ``instance``."""
    functions = functions or default_registry()
    canonical = Instance(instance.schema, {
        rel: sorted(instance.facts(rel), key=fact_key)
        for rel in instance.schema.names()})
    nulls = NullAllocator(max((v.label for _, f in instance.iter_facts()
                               for v in f.values if isinstance(v, Null)), default=0))
    ids = IdAllocator()
    rel_of = {}
    for rel, f in instance.iter_facts():
        reserve(ids, f.id)
        rel_of[f.id] = rel
    tids: dict[tuple, TupleId] = {}
    rows: dict[str, list[Fact]] = {rel: [] for rel in mapping.target.names()}
    annotations: dict[TupleId, object] = {}
    for tgd, bindings, combo in naive_trigger_matches(canonical, mapping):
        full = dict(bindings)
        for var in tgd.existential_order():
            full[var] = nulls.fresh()
        emitted = set()
        for atom in tgd.head:
            key = (atom.relation,
                   tuple(evaluate_term(t, full, functions) for t in atom.terms))
            if key in emitted:
                continue
            emitted.add(key)
            tid = tids.get(key)
            if tid is None:
                tid = tids[key] = ids.fresh(relation_tag(atom.relation))
                rows[atom.relation].append(Fact(tid, key[1]))
            combo_ids = tuple(f.id for f in combo)
            prev = annotations.get(tid)
            if mode == "how":
                prev = prev or Polynomial.zero()
                annotations[tid] = Polynomial.build(prev.terms + ((combo_ids, 1),))
            elif mode == "why":
                annotations[tid] = (prev or frozenset()) | {frozenset(combo_ids)}
            elif mode == "where":
                annotations[tid] = (prev or frozenset()) | {rel_of[t] for t in combo_ids}
    return Instance(mapping.target, rows), ProvenanceStore(mode, annotations)


# ---------------------------------------------------------------------------
# per-operator random cases


def _pair_schema() -> Schema:
    return Schema.of(RelationSchema("R", ("id", "name")),
                     RelationSchema("V", ("name", "subject")))


def _joinable_pair(rng: random.Random, total: bool) -> Instance:
    """R(id,name), V(name,subject); when total, every R row has a partner."""
    rfacts, names, seen = [], [], set()
    for _ in range(rng.randint(1, 5)):
        vec = (const(str(rng.randint(1, 9))), const(rng.choice(TEXT_POOL)))
        if vec in seen:
            continue
        seen.add(vec)
        rfacts.append(Fact(TupleId("r", len(rfacts) + 1), vec))
        names.append(vec[1].lexical)
    vfacts, vseen = [], set()
    for _ in range(rng.randint(1, 5)):
        vec = (const(rng.choice(TEXT_POOL)), const(rng.choice(TEXT_POOL)))
        if vec in vseen:
            continue
        vseen.add(vec)
        vfacts.append(Fact(TupleId("s", len(vfacts) + 1), vec))
    if total:
        have = {f.values[0].lexical for f in vfacts}
        for name in names:
            if name not in have:
                vec = (const(name), const(rng.choice(TEXT_POOL)))
                if vec not in vseen:
                    vseen.add(vec)
                    vfacts.append(Fact(TupleId("s", len(vfacts) + 1), vec))
                have.add(name)
    return Instance(_pair_schema(), {"R": rfacts, "V": vfacts})


def _split_ready(rng: random.Random) -> Instance:
    schema = Schema.of(RelationSchema("R", ("name", "code")))
    facts, seen = [], set()
    for _ in range(rng.randint(1, 6)):
        vec = (const(rng.choice(TEXT_POOL)),
               const(rng.choice(TEXT_POOL) + "|" + rng.choice(TEXT_POOL)))
        if vec in seen:
            continue
        seen.add(vec)
        facts.append(Fact(TupleId("r", len(facts) + 1), vec))
    return Instance(schema, {"R": facts})


def _r3(rng: random.Random, numeric: Iterable[str] = ()) -> Instance:
    schema = Schema.of(RelationSchema("R", ("x", "y", "z")))
    pools = {("R", a): NUM_POOL for a in numeric}
    return random_ground_instance(rng, schema, pools=pools)


def _rv3(rng: random.Random) -> Instance:
    schema = Schema.of(RelationSchema("R", ("x", "y", "z")),
                       RelationSchema("V", ("x", "y", "z")))
    return random_ground_instance(rng, schema)


JOIN_PARAMS = {"left": "R", "right": "V", "left_column": "name",
               "right_column": "name", "target": "T"}
COPY_COL_PARAMS = {"relation": "R", "source": "V",
                   "join": {"column": "name", "source_column": "name"},
                   "column": "subject"}

SMO_CASES: dict[str, list] = {
    "COPY_TABLE": [
        lambda rng: (_r3(rng), SmoSpec("COPY_TABLE", {"table": "R", "copy": "V"})),
        lambda rng: (_r3(rng), SmoSpec("COPY_TABLE", {"table": "R", "copy": "V"},
                                       variant=2)),
    ],
    "CREATE_TABLE": [
        lambda rng: (_r3(rng), SmoSpec("CREATE_TABLE",
                                       {"table": "W", "attributes": ["a", "b"]})),
    ],
    "DECOMPOSE_TABLE": [
        lambda rng: (_r3(rng), SmoSpec("DECOMPOSE_TABLE", {
            "table": "R",
            "parts": [{"name": "R1", "attributes": ["x", "y"]},
                      {"name": "R2", "attributes": ["x", "z"]}]})),
        lambda rng: (_r3(rng), SmoSpec("DECOMPOSE_TABLE", {
            "table": "R",
            "parts": [{"name": "R1", "attributes": ["x", "y"]},
                      {"name": "R2", "attributes": ["x", "z"]}]}, variant=2)),
    ],
    "DROP_TABLE": [
        lambda rng: (_rv3(rng), SmoSpec("DROP_TABLE", {"table": "R"})),
    ],
    "JOIN_TABLE": [
        lambda rng: (_joinable_pair(rng, total=rng.random() < 0.4),
                     SmoSpec("JOIN_TABLE", JOIN_PARAMS)),
    ],
    "MERGE_TABLE": [
        lambda rng: (_rv3(rng), SmoSpec("MERGE_TABLE",
                                        {"left": "R", "right": "V", "target": "T"})),
    ],
    "PARTITION_TABLE": [
        lambda rng: (_r3(rng), SmoSpec("PARTITION_TABLE", {
            "table": "R",
            "condition": {"attribute": "z", "op": rng.choice(["=", "<", ">="]),
                          "value": rng.choice(TEXT_POOL)},
            "targets": ["T1", "T2"]})),
    ],
    "RENAME_TABLE": [
        lambda rng: (_r3(rng), SmoSpec("RENAME_TABLE", {"table": "R", "to": "W"})),
    ],
    "ADD_COLUMN": [
        lambda rng: (_r3(rng), SmoSpec("ADD_COLUMN", {
            "relation": "R", "column": "w", "filler": {"const": "k"}})),
        lambda rng: (_r3(rng), SmoSpec("ADD_COLUMN", {
            "relation": "R", "column": "w", "filler": "null"})),
        lambda rng: (_r3(rng), SmoSpec("ADD_COLUMN", {
            "relation": "R", "column": "w",
            "filler": {"function": "concat_pipe", "args": ["x", "y"]}})),
    ],
    "COPY_COLUMN": [
        lambda rng: (_joinable_pair(rng, total=True),
                     SmoSpec("COPY_COLUMN", COPY_COL_PARAMS)),
        lambda rng: (_joinable_pair(rng, total=True),
                     SmoSpec("COPY_COLUMN", COPY_COL_PARAMS, variant=2)),
    ],
    "DROP_COLUMN": [
        lambda rng: (_r3(rng), SmoSpec("DROP_COLUMN",
                                       {"relation": "R", "column": "z"})),
    ],
    "MERGE_COLUMN": [
        lambda rng: (_r3(rng, numeric=("y", "z")), SmoSpec("MERGE_COLUMN", {
            "relation": "R", "columns": ["y", "z"], "target_column": "s",
            "function": "dec_add"})),
    ],
    "MOVE_COLUMN": [
        lambda rng: (_joinable_pair(rng, total=rng.random() < 0.4),
                     SmoSpec("MOVE_COLUMN", COPY_COL_PARAMS)),
    ],
    "RENAME_COLUMN": [
        lambda rng: (_r3(rng), SmoSpec("RENAME_COLUMN",
                                       {"relation": "R", "column": "z", "to": "w"})),
    ],
    "SPLIT_COLUMN": [
        lambda rng: (_split_ready(rng), SmoSpec("SPLIT_COLUMN", {
            "relation": "R", "column": "code",
            "target_columns": ["head", "tail"],
            "functions": ["split_pipe_head", "split_pipe_tail"],
            "recombine": "concat_pipe"})),
        lambda rng: (_split_ready(rng), SmoSpec("SPLIT_COLUMN", {
            "relation": "R", "column": "code",
            "target_columns": ["head", "tail"],
            "functions": ["split_pipe_head", "split_pipe_tail"]})),
    ],
    "NOP": [
        lambda rng: (_r3(rng), SmoSpec("NOP")),
    ],
}

RESOURCE_CONFIGS = [
    ("none", False), ("where", False), ("why", False), ("how", False),
    ("where", True), ("why", True), ("how", True),
]


# ---------------------------------------------------------------------------
# random multi-step scripts


def random_script(rng: random.Random, schema: Schema,
                  length: int, include_flagged_move: bool = False
                  ) -> list[SmoSpec]:
    """A schema-chain-valid random script of precondition-free operators."""
    steps: list[SmoSpec] = []
    current = schema
    fresh = itertools.count(1)
    while len(steps) < length:
        options = _applicable(rng, current, fresh)
        smo = rng.choice(options)
        from backchase.catalog import compile_forward
        current = compile_forward(smo, current).target
        steps.append(smo)
    if include_flagged_move:
        move = _applicable_move(current, fresh)
        if move is not None:
            steps.append(move)
    return steps


def _applicable(rng: random.Random, schema: Schema, fresh) -> list[SmoSpec]:
    options = [SmoSpec("NOP")]
    rels = list(schema.relations)
    rel = rng.choice(rels)
    options.append(SmoSpec("COPY_TABLE", {"table": rel.name,
                                          "copy": f"W{next(fresh)}"}))
    options.append(SmoSpec("RENAME_TABLE", {"table": rel.name,
                                            "to": f"W{next(fresh)}"}))
    options.append(SmoSpec("CREATE_TABLE", {"table": f"W{next(fresh)}",
                                            "attributes": ["a", "b"]}))
    options.append(SmoSpec("ADD_COLUMN", {
        "relation": rel.name, "column": f"c{next(fresh)}",
        "filler": {"const": rng.choice(TEXT_POOL)}}))
    options.append(SmoSpec("RENAME_COLUMN", {
        "relation": rel.name, "column": rng.choice(rel.attributes),
        "to": f"c{next(fresh)}"}))
    if len(rels) > 1:
        options.append(SmoSpec("DROP_TABLE", {"table": rel.name}))
    if rel.arity > 1:
        options.append(SmoSpec("DROP_COLUMN", {
            "relation": rel.name, "column": rel.attributes[-1]}))
        options.append(SmoSpec("PARTITION_TABLE", {
            "table": rel.name,
            "condition": {"attribute": rel.attributes[0], "op": "=",
                          "value": rng.choice(TEXT_POOL)},
            "targets": [f"W{next(fresh)}", f"W{next(fresh)}"]}))
        options.append(SmoSpec("DECOMPOSE_TABLE", {
            "table": rel.name,
            "parts": [
                {"name": f"W{next(fresh)}", "attributes": list(rel.attributes[:-1])},
                {"name": f"W{next(fresh)}",
                 "attributes": [rel.attributes[0], rel.attributes[-1]]},
            ]}))
    same_shape = [
        (a, b) for a in rels for b in rels
        if a.name < b.name and a.attributes == b.attributes
    ]
    if same_shape:
        a, b = rng.choice(same_shape)
        options.append(SmoSpec("MERGE_TABLE", {
            "left": a.name, "right": b.name, "target": f"W{next(fresh)}"}))
    return options


def _applicable_move(schema: Schema, fresh) -> SmoSpec | None:
    rels = list(schema.relations)
    for receiver in rels:
        for partner in rels:
            if receiver.name == partner.name or partner.arity < 2:
                continue
            moved = partner.attributes[-1]
            join_col = partner.attributes[0]
            if moved in receiver.attributes:
                continue
            return SmoSpec("MOVE_COLUMN", {
                "relation": receiver.name, "source": partner.name,
                "join": {"column": receiver.attributes[0],
                         "source_column": join_col},
                "column": moved})
    return None
