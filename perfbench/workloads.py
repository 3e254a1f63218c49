"""Seeded input generator for the three benchmark workloads.

Every instance has a fixed *shape* (row counts, which rows share a value,
which rows find a join partner) and seed-chosen *values*.  Values are
fixed-width tokens and decimals, so row counts, trigger counts and the bytes
of every written file are the same for every seed, while the data itself
changes with the seed.  This keeps the counts of the traced pass comparable
across runs and the classification reports equal to the recorded golden list.

Each generator respects the documented preconditions of its operator:
COPY_COLUMN and MOVE_COLUMN receivers always have exactly one partner,
SPLIT_COLUMN values contain ``|``, MERGE_COLUMN inputs are decimals and
MERGE_TABLE tables share an attribute list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ROUNDTRIP_ROWS = 200
SCALE_ROWS = (2000, 10000)
MIGRATE_EMP_ROWS = 1000
MIGRATE_DEPT_ROWS = 20
MIGRATE_LOG_ROWS = 1000
MIGRATE_LOG_KINDS, MIGRATE_LOG_DAYS = 2, 9  # coprime: 18 merge groups of ~56 rows
MIGRATE_OLD_ROWS = 100

# (provenance mode, side tables): none; where; why; why+side; how; how+side.
RESOURCE_LEVELS = (
    ("none", False), ("where", False), ("why", False),
    ("why", True), ("how", False), ("how", True),
)

# Single-atom forward and inverse bodies only: instance size, not the chase,
# sets the cost of these.
SCALE_KINDS = (
    "NOP", "RENAME_TABLE", "RENAME_COLUMN", "PARTITION_TABLE", "ADD_COLUMN",
    "SPLIT_COLUMN", "DROP_COLUMN", "MERGE_COLUMN", "MERGE_TABLE", "DROP_TABLE",
)


@dataclass(frozen=True)
class Case:
    """One benchmark case: a source instance, a script and the resources the
    roundtrip may use.  ``rows`` is the source row count."""

    name: str
    instance: object
    script: tuple
    provenance: str
    side_tables: bool
    rows: int


class Values:
    """Distinct fixed-width values drawn from one seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def tokens(self, prefix: str, k: int) -> list[str]:
        """``k`` distinct tokens in ascending order.  The order is fixed so
        that sorting rows by value, as the chase does, gives the same row
        order and hence the same tuple ids for every seed."""
        return [f"{prefix}{v}" for v in sorted(self.rng.sample(range(100000, 1000000), k))]

    def decimals(self, k: int, low: int) -> list[str]:
        """Decimals ``ddd.dd`` in [low, low + 200) whose last digit is 1, 2 or
        3, so a sum of two such values (low <= 300) keeps two fraction digits,
        three integer digits and no trailing zero."""
        return [
            f"{self.rng.randint(low, low + 199)}.{self.rng.randint(0, 9)}"
            f"{self.rng.randint(1, 3)}"
            for _ in range(k)
        ]


def build_instance(bc, relations: list[tuple[str, tuple[str, ...], list[tuple]]]):
    """An instance made through the library's public model API from
    (name, attributes, lexical rows); row i of R gets tuple id r<i+1>."""
    schema = bc.Schema(tuple(bc.RelationSchema(name, attrs)
                             for name, attrs, _ in relations))
    facts = {}
    for name, _, rows in relations:
        tag = name.lower()  # one string shared by every id of the relation
        facts[name] = [bc.Fact(bc.TupleId(tag, i + 1), tuple(bc.const(v) for v in row))
                       for i, row in enumerate(rows)]
    return bc.Instance(schema, facts)


# ---------------------------------------------------------------------------
# row shapes


def r3_rows(vals: Values, n: int, tag: str = "") -> list[tuple]:
    """R(x, y, z): x in n/4 groups of four rows, y in four groups, z unique.
    Each (x, y) pair occurs exactly twice.  ``tag`` keeps the values of two
    tables apart."""
    xs = vals.tokens("x" + tag, max(1, n // 4))
    ys = vals.tokens("y" + tag, 4)
    zs = vals.tokens("z" + tag, n)
    return [(xs[i % len(xs)], ys[i % 4], zs[i]) for i in range(n)]


def r3_pair_rows(vals: Values, n: int) -> tuple[list[tuple], list[tuple]]:
    """R and V over (x, y, z); the first half of V's rows repeat R's, the
    rest share no value with R.  The overlap keeps MERGE_TABLE's
    reconstruction without provenance (every merged row returns to both
    tables) at 3n facts."""
    r = r3_rows(vals, n)
    v = r3_rows(vals, n, tag="v")
    overlap = n // 2
    return r, r[:overlap] + v[overlap:]


def join_rows(vals: Values, n: int) -> tuple[list[tuple], list[tuple]]:
    """R(id, name) and V(name, subject) for JOIN_TABLE.

    95 % of R's rows carry one of ``0.475 n`` shared names, twice each; V's
    first rows give two partners to 90 % of those names.  The rest of each
    table dangles.
    """
    shared = vals.tokens("n", max(1, (n * 95 // 100) // 2))
    ids = vals.tokens("i", n)
    subjects = vals.tokens("s", n)
    r_cut = len(shared) * 2
    v_names = shared[: max(1, len(shared) * 9 // 10)]
    v_cut = len(v_names) * 2
    r_extra = vals.tokens("a", n - r_cut)
    v_extra = vals.tokens("b", n - v_cut)
    r = [(ids[i], shared[i % len(shared)] if i < r_cut else r_extra[i - r_cut])
         for i in range(n)]
    v = [(v_names[j % len(v_names)] if j < v_cut else v_extra[j - v_cut],
          subjects[j]) for j in range(n)]
    return r, v


def partner_rows(vals: Values, n: int) -> tuple[list[tuple], list[tuple]]:
    """R(id, name) and V(name, subject) for COPY_COLUMN and MOVE_COLUMN: V's
    names are unique and every R row names one of V's first three quarters."""
    names = vals.tokens("n", n)
    ids = vals.tokens("i", n)
    subjects = vals.tokens("s", n)
    used = max(1, n * 3 // 4)
    r = [(ids[i], names[i % used]) for i in range(n)]
    v = [(names[j], subjects[j]) for j in range(n)]
    return r, v


def merge_column_rows(vals: Values, n: int) -> list[tuple]:
    """R(name, mod1, mod2) decimals; rows i and i + n/2 swap mod1 and mod2
    under one name, so dec_add merges them pairwise."""
    half = n // 2
    names = vals.tokens("n", half)
    a, b = vals.decimals(half, 100), vals.decimals(half, 300)
    return ([(names[i], a[i], b[i]) for i in range(half)]
            + [(names[i], b[i], a[i]) for i in range(half)])


def split_rows(vals: Values, n: int) -> list[tuple]:
    """R(name, code) with codes ``head|tail``."""
    names = vals.tokens("n", n)
    heads = vals.tokens("h", 8)
    tails = vals.tokens("t", n)
    return [(names[i], f"{heads[i % 8]}|{tails[i]}") for i in range(n)]


# ---------------------------------------------------------------------------
# operator specs


R3 = ("x", "y", "z")
PAIR = (("id", "name"), ("name", "subject"))
JOIN = {"left": "R", "right": "V", "left_column": "name",
        "right_column": "name", "target": "T"}
COPY_COL = {"relation": "R", "source": "V",
            "join": {"column": "name", "source_column": "name"},
            "column": "subject"}
DECOMPOSE = {"table": "R", "parts": [{"name": "R1", "attributes": ["x", "y"]},
                                     {"name": "R2", "attributes": ["x", "z"]}]}


def _spec(kind: str, variant: int, vals: Values, n: int):
    """(relations, params) for one operator spec at ``n`` rows per relation."""
    if kind in ("COPY_TABLE", "CREATE_TABLE", "DECOMPOSE_TABLE", "PARTITION_TABLE",
                "RENAME_TABLE", "ADD_COLUMN", "DROP_COLUMN", "RENAME_COLUMN", "NOP"):
        rows = r3_rows(vals, n)
        rels = [("R", R3, rows)]
        params = {
            "COPY_TABLE": {"table": "R", "copy": "V"},
            "CREATE_TABLE": {"table": "W", "attributes": ["a", "b"]},
            "DECOMPOSE_TABLE": DECOMPOSE,
            "PARTITION_TABLE": {"table": "R", "targets": ["T1", "T2"],
                                "condition": {"attribute": "y", "op": "=",
                                              "value": rows[0][1]}},
            "RENAME_TABLE": {"table": "R", "to": "W"},
            "ADD_COLUMN": {"relation": "R", "column": "w",
                           "filler": "null" if variant == 1 else
                           {"function": "concat_pipe", "args": ["x", "y"]}},
            "DROP_COLUMN": {"relation": "R", "column": "z"},
            "RENAME_COLUMN": {"relation": "R", "column": "z", "to": "w"},
            "NOP": {},
        }[kind]
        return rels, params
    if kind in ("DROP_TABLE", "MERGE_TABLE"):
        r, v = r3_pair_rows(vals, n)
        params = ({"table": "R"} if kind == "DROP_TABLE"
                  else {"left": "R", "right": "V", "target": "T"})
        return [("R", R3, r), ("V", R3, v)], params
    if kind == "JOIN_TABLE":
        r, v = join_rows(vals, n)
        return [("R", PAIR[0], r), ("V", PAIR[1], v)], JOIN
    if kind in ("COPY_COLUMN", "MOVE_COLUMN"):
        r, v = partner_rows(vals, n)
        return [("R", PAIR[0], r), ("V", PAIR[1], v)], COPY_COL
    if kind == "MERGE_COLUMN":
        return ([("R", ("name", "mod1", "mod2"), merge_column_rows(vals, n))],
                {"relation": "R", "columns": ["mod1", "mod2"],
                 "target_column": "sum", "function": "dec_add"})
    if kind == "SPLIT_COLUMN":
        return ([("R", ("name", "code"), split_rows(vals, n))],
                {"relation": "R", "column": "code",
                 "target_columns": ["head", "tail"],
                 "functions": ["split_pipe_head", "split_pipe_tail"],
                 "recombine": "concat_pipe"})
    raise ValueError(f"no generator for {kind}")


ROUNDTRIP_SPECS = (
    ("COPY_TABLE", 1), ("COPY_TABLE", 2), ("CREATE_TABLE", 1),
    ("DECOMPOSE_TABLE", 1), ("DECOMPOSE_TABLE", 2), ("DROP_TABLE", 1),
    ("JOIN_TABLE", 1), ("MERGE_TABLE", 1), ("PARTITION_TABLE", 1),
    ("RENAME_TABLE", 1), ("ADD_COLUMN", 1), ("ADD_COLUMN", 2),
    ("COPY_COLUMN", 1), ("COPY_COLUMN", 2), ("DROP_COLUMN", 1),
    ("MERGE_COLUMN", 1), ("MOVE_COLUMN", 1), ("RENAME_COLUMN", 1),
    ("SPLIT_COLUMN", 1), ("NOP", 1),
)


def _case(bc, vals: Values, kind: str, variant: int, n: int,
          provenance: str, side: bool, name: str) -> Case:
    rels, params = _spec(kind, variant, vals, n)
    instance = build_instance(bc, rels)
    smo = bc.SmoSpec(kind, params, variant)
    return Case(name, instance, (smo,), provenance, side, instance.size())


def roundtrip_cases(bc, seed: int) -> list[Case]:
    """20 operator specs x 6 resource levels at ROUNDTRIP_ROWS rows.

    Cases are ordered in blocks of 20 that each hold every spec once, with
    the resource level rotating, so every block costs about the same.
    """
    vals = Values(random.Random(seed))
    cases = []
    for block in range(len(RESOURCE_LEVELS)):
        for i, (kind, variant) in enumerate(ROUNDTRIP_SPECS):
            prov, side = RESOURCE_LEVELS[(i + block) % len(RESOURCE_LEVELS)]
            level = prov + ("+side" if side else "")
            name = f"{kind}.v{variant}.{level}"
            cases.append(_case(bc, vals, kind, variant, ROUNDTRIP_ROWS,
                               prov, side, name))
    return cases


def scale_cases(bc, seed: int) -> list[Case]:
    vals = Values(random.Random(seed))
    return [
        _case(bc, vals, kind, 1, n, "how", True, f"{kind}.n{n}")
        for n in SCALE_ROWS for kind in SCALE_KINDS
    ]


# ---------------------------------------------------------------------------
# migrate


EMP = ("eid", "name", "dept", "base", "bonus", "code")


def migrate_tables(seed: int) -> tuple[dict[str, tuple[tuple[str, ...], list[tuple]]], str]:
    """Emp, Dept, Log and Old as lexical rows, and the region PARTITION_TABLE
    splits on.

    Emp rows point at 22 departments of which Dept holds 20, so two
    departments' employees dangle in the join.  Log's (kind, day) pairs take
    exactly 18 values, so dropping ``lid`` merges it into 18 groups of about
    56 rows.
    """
    vals = Values(random.Random(seed))
    depts = vals.tokens("d", MIGRATE_DEPT_ROWS + 2)
    regions = vals.tokens("g", 4)
    units = vals.tokens("u", 250)
    n = MIGRATE_EMP_ROWS
    eids, names = vals.tokens("e", n), vals.tokens("p", n)
    base, bonus = vals.decimals(n, 100), vals.decimals(n, 300)
    emp = [(eids[i], names[i], depts[i % len(depts)], base[i], bonus[i],
            f"{regions[i % 4]}|{units[i % 250]}") for i in range(n)]
    dnames = vals.tokens("m", MIGRATE_DEPT_ROWS)
    dept = [(depts[j], dnames[j]) for j in range(MIGRATE_DEPT_ROWS)]
    kinds = vals.tokens("k", MIGRATE_LOG_KINDS)
    days = vals.tokens("t", MIGRATE_LOG_DAYS)
    lids = vals.tokens("l", MIGRATE_LOG_ROWS)
    log = [(lids[i], kinds[i % len(kinds)], days[i % len(days)])
           for i in range(MIGRATE_LOG_ROWS)]
    oids, notes = vals.tokens("o", MIGRATE_OLD_ROWS), vals.tokens("q", MIGRATE_OLD_ROWS)
    old = [(oids[i], notes[i]) for i in range(MIGRATE_OLD_ROWS)]
    return {
        "Emp": (EMP, emp),
        "Dept": (("did", "dname"), dept),
        "Log": (("lid", "kind", "day"), log),
        "Old": (("oid", "note"), old),
    }, regions[0]


def migrate_script(bc, region: str) -> tuple:
    S = bc.SmoSpec
    return (
        S("RENAME_COLUMN", {"relation": "Emp", "column": "name", "to": "ename"}),
        S("MERGE_COLUMN", {"relation": "Emp", "columns": ["base", "bonus"],
                           "target_column": "pay", "function": "dec_add"}),
        S("SPLIT_COLUMN", {"relation": "Emp", "column": "code",
                           "target_columns": ["region", "unit"],
                           "functions": ["split_pipe_head", "split_pipe_tail"],
                           "recombine": "concat_pipe"}),
        S("DROP_COLUMN", {"relation": "Log", "column": "lid"}),
        S("JOIN_TABLE", {"left": "Emp", "right": "Dept", "left_column": "dept",
                         "right_column": "did", "target": "Staff"}),
        S("PARTITION_TABLE", {"table": "Staff", "targets": ["StaffA", "StaffB"],
                              "condition": {"attribute": "region", "op": "=",
                                            "value": region}}),
        S("DROP_TABLE", {"table": "Old"}),
    )


def migrate_cases(bc, seed: int) -> list[Case]:
    tables, region = migrate_tables(seed)
    instance = build_instance(
        bc, [(name, attrs, rows) for name, (attrs, rows) in tables.items()])
    return [Case("migrate.how+side", instance, migrate_script(bc, region),
                 "how", True, instance.size())]


def expected_migrate_final(seed: int) -> dict[str, list[tuple]]:
    """The migrated instance computed directly from the lexical rows, without
    the library: the reference the evolved final instance must match."""
    from decimal import Decimal

    tables, region = migrate_tables(seed)
    dnames = dict(tables["Dept"][1])
    staff = {"StaffA": set(), "StaffB": set()}
    for eid, name, dept, base, bonus, code in tables["Emp"][1]:
        if dept not in dnames:
            continue
        head, tail = code.split("|", 1)
        pay = f"{Decimal(base) + Decimal(bonus):.2f}"
        target = "StaffA" if head == region else "StaffB"
        staff[target].add((eid, name, dept, pay, head, tail, dnames[dept]))
    log = {(kind, day) for _, kind, day in tables["Log"][1]}
    return {"Log": sorted(log), "StaffA": sorted(staff["StaffA"]),
            "StaffB": sorted(staff["StaffB"])}


CASES = {"roundtrip": roundtrip_cases, "migrate": migrate_cases,
         "scale": scale_cases}
