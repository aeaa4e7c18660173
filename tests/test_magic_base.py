"""The shared EDB base of magic-sets goals, pinned to per-goal seeding.

:class:`~repro.core.engine.WellFoundedEngine` interns its EDB once into a
:class:`~repro.lp.columnar.ColumnarBase` and grounds every columnar magic
goal over it, with only the goal's seeds driving the first delta round.  The
tuple backend still seeds the whole database per goal, so it is the oracle:
repeated and interleaved goals on one warm engine must ground exactly the
rule set a fresh tuple grounding of the same plan produces.  The covered
database facts are recomputed here by scanning the database against the
magic atoms of a separate tuple grounding, so the base's index probe is
checked against logic it does not share.
"""

from __future__ import annotations

import pytest

from repro import WellFoundedEngine
from repro.bench.generators import chain_reachability_workload
from repro.lang.parser import parse_atom, parse_program, parse_query
from repro.lang.program import Database
from repro.lang.queries import query_literals
from repro.lang.rules import NormalRule
from repro.lp.columnar import ColumnarBase, ColumnarGrounder, make_grounder
from repro.rewrite.magic import (
    MagicPlan,
    ground_magic,
    is_magic_predicate,
    magic_predicate_name,
    rewrite_for_query,
)
from repro.scenarios.registry import build_scenario, scenario_names

REACH_TEXT = """
edge(a, b). source(a). node(a). node(b). node(c).
source(X) -> reach(X).
reach(X), edge(X, Y) -> reach(Y).
node(X), not reach(X) -> unreachable(X).
"""

#: ``link`` is both an EDB predicate and the head of a rule
EDB_HEAD_TEXT = """
link(d). edge(a, b). edge(b, c). edge(c, d). edge(e, e).
node(a). node(b). node(c). node(d). node(e).
edge(X, Y), link(Y) -> link(X).
node(X), not link(X) -> cut(X).
"""

#: ``hit`` recurses through an existential (no magic plan), and ``junk`` is
#: irrelevant to it, so ``? hit(a)`` runs on a relevance-pruned sub-engine
PRUNED_TEXT = """
start(a). other(a).
start(X) -> exists Y r(X, Y).
r(X, Y) -> exists Z r(Y, Z).
r(X, Y), flag(X) -> hit(X).
other(X) -> junk(X).
"""


def _interleaved(goals: list[str]) -> list[str]:
    """Every goal twice, the second round in reverse (repeats and interleaving)."""
    return goals + goals[::-1] + goals[::2]


def _covered_by_scan(plan: MagicPlan, database: Database) -> tuple[set, int]:
    """The database facts some magic atom covers, and the number of magic atoms.

    Grounds the plan with the tuple backend and scans every database atom,
    building the magic atom of each adornment of its predicate and looking it
    up among the grounder's candidates.
    """
    grounder = make_grounder(plan.program, database, backend="tuple")
    assert grounder.run(raise_on_budget=False)
    candidates = grounder.index.atoms()
    adornments = plan.adornments_by_predicate()
    covered = set()
    for atom in database:
        for adornment in adornments.get(atom.predicate, ()):
            bound = [atom.args[i] for i in adornment.bound_positions()]
            magic = magic_predicate_name(atom.predicate, adornment)
            if any(c.predicate == magic and list(c.args) == bound for c in candidates):
                covered.add(atom)
                break
    magic_atoms = sum(1 for c in candidates if is_magic_predicate(c.predicate))
    return covered, magic_atoms


def _assert_matches_per_goal_seeding(engine: WellFoundedEngine, goals: list[str]) -> int:
    """Ground each goal over the engine's base and against a fresh tuple oracle.

    Returns how many goals were supported by the rewriting (and so compared).
    """
    database = Database(engine.database)
    compared = 0
    for goal in _interleaved(goals):
        literals = query_literals(parse_query(goal))
        plan = rewrite_for_query(engine.skolemized.rules(), literals, sips=engine.sips)
        if not plan.supported:
            continue
        warm = ground_magic(plan, engine._magic_base(), backend="columnar")
        oracle = ground_magic(plan, database, backend="tuple")
        assert warm.saturated and oracle.saturated
        assert set(warm.ground) == set(oracle.ground), goal
        covered, magic_atoms = _covered_by_scan(plan, database)
        facts = {rule.head for rule in warm.ground if rule.is_fact()}
        assert {fact for fact in facts if fact in database} == covered, goal
        assert warm.covered_facts == oracle.covered_facts == len(covered), goal
        assert warm.magic_atoms == oracle.magic_atoms == magic_atoms, goal
        assert warm.candidates == oracle.candidates, goal
        assert oracle.edb_rows_seeded == len(database)
        assert engine.holds(goal, rewrite=True) == engine.holds(goal), goal
        compared += 1
    return compared


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_goals_match_per_goal_seeding(name):
    bundle = build_scenario(name)
    engine = WellFoundedEngine(bundle.program, bundle.database)
    assert _assert_matches_per_goal_seeding(engine, list(bundle.queries)) > 0


def test_chain_goals_match_per_goal_seeding():
    program, database = chain_reachability_workload(6, 4)
    engine = WellFoundedEngine(program, database)
    goals = [
        "? unreachable(c0_4)",
        "? reach(c1_2)",
        "? reach(X)",
        # query-prefix magic rules (bodies over EDB predicates only): the
        # overlay declines these plans and the database is seeded
        "? edge(c2_1, Y), not reach(Y)",
        "? edge(X, Y), reach(Y)",
        "? node(X), unreachable(X)",
    ]
    assert _assert_matches_per_goal_seeding(engine, goals) == len(_interleaved(goals))


def test_edb_predicate_heading_a_rule_matches_per_goal_seeding():
    engine = WellFoundedEngine(EDB_HEAD_TEXT)
    goals = ["? link(a)", "? cut(e)", "? cut(X)", "? link(X), node(X)"]
    assert _assert_matches_per_goal_seeding(engine, goals) == len(_interleaved(goals))
    # the overlay declines plans deriving an EDB predicate, so nothing is
    # ever written into the shared base
    base = engine._magic_base()
    assert set(base) == set(engine.database)
    assert sum(len(r.rows) for r in base.relations.values()) == len(engine.database)


def test_warm_goals_seed_no_edb_rows():
    """A deterministic guard against O(|D|) work per magic goal."""
    program, database = chain_reachability_workload(16, 6)
    engine = WellFoundedEngine(program, database)
    for chain in range(4):
        assert not engine.holds(f"? unreachable(c{chain}_6)", rewrite=True)
        stats = engine.last_query_stats
        assert stats["mode"] == "magic" and not stats["cache_hit"]
        assert stats["edb_rows_seeded"] == 0
        assert stats["candidates"] >= len(database)
    seeding = WellFoundedEngine(program, database, backend="tuple")
    seeding.holds("? unreachable(c0_6)", rewrite=True)
    assert seeding.last_query_stats["edb_rows_seeded"] == len(database)


def test_plans_the_overlay_declines_seed_the_database():
    engine = WellFoundedEngine(EDB_HEAD_TEXT)
    assert engine.holds("? link(a)", rewrite=True)
    assert engine.last_query_stats["edb_rows_seeded"] == len(engine.database)
    program, database = chain_reachability_workload(6, 4)
    engine = WellFoundedEngine(program, database)
    engine.holds("? edge(c2_1, Y), not reach(Y)", rewrite=True)
    assert engine.last_query_stats["edb_rows_seeded"] == len(database)
    engine.holds("? unreachable(c2_4)", rewrite=True)
    assert engine.last_query_stats["edb_rows_seeded"] == 0


def test_stale_engine_answers_from_its_snapshot_on_every_path():
    """Mutating the database after construction changes no answer of any path."""
    for backend in ("columnar", "tuple", "sqlite"):
        program, facts = parse_program(REACH_TEXT)
        database = Database(facts)
        engine = WellFoundedEngine(program, database, backend=backend)
        assert not engine.holds("? reach(c)")
        assert not engine.holds("? reach(c)", rewrite=True)

        database.add(parse_atom("edge(b, c)"))
        assert engine.is_stale()
        for rewrite in (False, True):
            assert engine.holds("? unreachable(c)", rewrite=rewrite), (backend, rewrite)
            assert not engine.holds("? reach(c)", rewrite=rewrite), (backend, rewrite)
            assert not engine.holds("? reach(b), reach(c)", rewrite=rewrite)

        fresh = WellFoundedEngine(program, database, backend=backend)
        assert fresh.holds("? reach(c)") and fresh.holds("? reach(c)", rewrite=True)


def test_mutation_before_the_first_query_is_not_seen():
    """Lazily built structures still come from the construction-time EDB."""
    for backend in ("columnar", "tuple"):
        program, facts = parse_program(REACH_TEXT)
        database = Database(facts)
        engine = WellFoundedEngine(program, database, backend=backend)
        database.add(parse_atom("edge(b, c)"))
        assert engine.holds("? unreachable(c)", rewrite=True), backend
        assert engine.holds("? unreachable(c)"), backend
        assert not engine.holds("? reach(c)", rewrite=True), backend


def test_pruned_fallback_reads_the_snapshot():
    """The relevance-pruned sub-engine of an unsupported goal is built lazily too."""
    program, facts = parse_program(PRUNED_TEXT)
    database = Database(facts)
    engine = WellFoundedEngine(program, database)
    database.add(parse_atom("flag(a)"))
    assert not engine.holds("? hit(a)", rewrite=True)
    assert engine.last_query_stats["mode"] == "pruned-chase"
    assert not engine.holds("? hit(a)")
    assert WellFoundedEngine(program, database).holds("? hit(a)", rewrite=True)


def test_overlay_declines_rules_old_rows_alone_could_fire():
    base = ColumnarBase({parse_atom("p(a)")})
    head = parse_atom("q(a)")
    assert ColumnarGrounder.over_base(base, [NormalRule(head)]) is not None
    guarded = NormalRule(head, (parse_atom("g(a)"), parse_atom("p(a)")))
    assert ColumnarGrounder.over_base(base, [guarded]) is not None
    # every positive body atom over base predicates, or none at all
    assert ColumnarGrounder.over_base(base, [NormalRule(head, (parse_atom("p(a)"),))]) is None
    rule = NormalRule(head, (), (parse_atom("r(a)"),))
    assert ColumnarGrounder.over_base(base, [rule]) is None
    # a rule deriving a base predicate would write the shared relation
    derives = NormalRule(parse_atom("p(b)"), (parse_atom("g(b)"),))
    assert ColumnarGrounder.over_base(base, [derives]) is None
