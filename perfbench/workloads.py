"""The four workloads: their inputs, cold set-up, operation streams and oracles.

Each workload is one client in a closed loop: the next operation is issued
when the previous one returned.  ``inputs(seed)`` builds everything the
engine is given (untimed), ``setup(inputs)`` turns it into an engine with its
first model computed (timed as ``setup_s``), ``stream(state, inputs, seed)``
yields :class:`Op` objects forever (the runner times each ``Op.call`` and
checks its result outside the timed region), and ``checks(state, inputs)``
runs the untimed checks that follow the stream.  ``rate`` is the workload's
nominal operations per second of engine time (measured on a 2-vCPU virtual
machine): a run of ``seconds`` issues ``rate × seconds`` timed operations, a
count that does not depend on how fast the machine happens to be.

Why each workload exists is written in ``README.md`` next to this file.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro import WellFoundedEngine, MaterializedEngine
from repro.bench.generators import (
    chain_reachability_workload,
    large_edb_reachability,
    paper_example_program,
)
from repro.lang.atoms import Atom
from repro.lang.parser import parse_atom, parse_query
from repro.lang.program import Database
from repro.lang.terms import Constant
from repro.scenarios.registry import build_scenario, scenario_names
from repro.scenarios.trace import generate_trace

from . import oracles

#: Sizes the benchmark runs at, and the smoke sizes its tests use.
SCALES = {
    "full": {
        "chains": 384,
        "chain_length": 12,
        "paper_chains": 384,
        "scenario_size": 160,
        "scenario_check_every": 1000,
        "edb_facts": 50_000,
    },
    "smoke": {
        "chains": 12,
        "chain_length": 4,
        "paper_chains": 6,
        "scenario_size": 10,
        "scenario_check_every": 40,
        "edb_facts": 2_000,
    },
}


@dataclass
class Op:
    """One operation of a stream.

    ``kind`` is ``"query"``, ``"update"`` (both timed) or ``"check"`` (an
    untimed checkpoint whose ``call`` returns a list of ``(label, ok)``).
    ``expect`` maps the call's result to whether it agrees with the oracle;
    ``observe`` reads counters off the engine after the call (untimed).
    """

    kind: str
    label: str
    call: Callable[[], object]
    expect: Optional[Callable[[object], bool]] = None
    observe: Optional[Callable[[], dict]] = None


#: ``(label, agrees with the oracle, known defect or None)`` of an untimed check
#: run after the stream; a known defect names a documented bug.
Check = tuple[str, bool, Optional[str]]


def names(answers) -> set[tuple[str, ...]]:
    """An answer set as tuples of constant names (oracle-comparable)."""
    return {tuple(str(term) for term in row) for row in answers}


def _successors(edges) -> dict[str, set[str]]:
    successors: dict[str, set[str]] = {}
    for left, right in edges:
        successors.setdefault(left, set()).add(right)
    return successors


# ---------------------------------------------------------------------------
# chain-cold
# ---------------------------------------------------------------------------


@dataclass
class ChainInputs:
    text: str
    nodes: list[str]
    successors: dict[str, set[str]]
    reach: set[str]


class ChainCold:
    """Existential-free reachability over disjoint chains, given as program text.

    The ``source`` fact of every fourth chain (which quarter depends on the
    seed) is dropped, so negation decides those chains' nodes.  Every tenth
    query is a distinct selective ``rewrite=True`` goal (magic sets); the rest
    are answered from the engine's cached model.
    """

    name = "chain-cold"
    rate = 38
    #: A fixed mix.  By cost the kinds rank unreachable (20% of the queries),
    #: reach (20%), edge-not-reach (30%), answer-edge-reach (20%) and rewrite
    #: (10%), so the median falls inside edge-not-reach and p95 inside
    #: rewrite whatever the seed.
    schedule = (
        "unreachable", "reach", "edge-not-reach", "answer-edge-reach", "unreachable",
        "reach", "edge-not-reach", "edge-not-reach", "answer-edge-reach", "rewrite",
    )

    def __init__(self, scale: dict):
        self.chains = scale["chains"]
        self.length = scale["chain_length"]

    def inputs(self, seed: int) -> ChainInputs:
        program, database = chain_reachability_workload(self.chains, self.length)
        dropped = seed % 4
        lines = [str(rule) for rule in program]  # rules render with their "."
        nodes: list[str] = []
        edges: list[tuple[str, str]] = []
        sources: list[str] = []
        for atom in database:
            args = [str(term) for term in atom.args]
            if atom.predicate == "source":
                if int(args[0][1:].split("_")[0]) % 4 == dropped:
                    continue
                sources.append(args[0])
            elif atom.predicate == "edge":
                edges.append((args[0], args[1]))
            elif atom.predicate == "node":
                nodes.append(args[0])
            lines.append(f"{atom}.")
        successors = _successors(edges)
        return ChainInputs(
            "\n".join(lines) + "\n", sorted(nodes), successors,
            oracles.reachable(sources, successors),
        )

    def setup(self, inputs: ChainInputs) -> WellFoundedEngine:
        engine = WellFoundedEngine(inputs.text)
        engine.model()
        return engine

    def stream(self, engine: WellFoundedEngine, inputs: ChainInputs, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        reach = inputs.reach
        # one rewrite goal shape (the last node of a chain, in seeded chain
        # order) keeps the rewrite latencies, which set p95, of one cost
        ends = [node for node in inputs.nodes if node not in inputs.successors]
        rng.shuffle(ends)
        goals = itertools.cycle(ends)  # distinct until every chain was asked
        inner = [node for node in inputs.nodes if node in inputs.successors]
        for kind in itertools.cycle(self.schedule):
            if kind == "rewrite":
                node = next(goals)
                want = node not in reach
                yield Op("query", "rewrite-unreachable",
                         lambda q=f"? unreachable({node})": engine.holds(q, rewrite=True),
                         lambda got, want=want: got is want,
                         lambda: _rewrite_counters(engine.last_query_stats))
            elif kind == "reach":
                node = rng.choice(inputs.nodes)
                want = node in reach
                yield Op("query", kind, lambda q=f"? reach({node})": engine.holds(q),
                         lambda got, want=want: got is want)
            elif kind == "unreachable":
                node = rng.choice(inputs.nodes)
                want = node not in reach
                yield Op("query", kind, lambda q=f"? unreachable({node})": engine.holds(q),
                         lambda got, want=want: got is want)
            elif kind == "edge-not-reach":
                node = rng.choice(inner)
                want = any(succ not in reach for succ in inputs.successors[node])
                yield Op("query", kind,
                         lambda q=f"? edge({node}, Y), not reach(Y)": engine.holds(q),
                         lambda got, want=want: got is want)
            else:
                node = rng.choice(inner)
                want = {(succ,) for succ in inputs.successors[node] if succ in reach}
                yield Op("query", kind,
                         lambda q=f"? edge({node}, Y), reach(Y)": engine.answer(q),
                         lambda got, want=want: names(got) == want)

    def engines(self, engine) -> list:
        return [engine]

    def checks(self, engine: WellFoundedEngine, inputs: ChainInputs) -> list[Check]:
        """The whole model against the oracle, after the stream."""
        reach = {(node,) for node in inputs.reach}
        unreachable = {(node,) for node in inputs.nodes if node not in inputs.reach}
        return [
            ("model reach", names(engine.answer("? reach(X)")) == reach, None),
            ("model unreachable", names(engine.answer("? unreachable(X)")) == unreachable, None),
        ]


def _rewrite_counters(stats: Optional[dict]) -> dict:
    stats = stats or {}
    return {
        "rewrite.queries": 1,
        "rewrite.cache_hits": int(bool(stats.get("cache_hit"))),
        "rewrite.ground_rules": stats.get("ground_rules", 0),
    }


# ---------------------------------------------------------------------------
# paper-deepening
# ---------------------------------------------------------------------------


class PaperDeepening:
    """The paper's Example 4 with many isomorphic chains; the chase never ends.

    Queries ask the per-chain literals Examples 4/9 state, in a fixed mix;
    every tenth is the open query ``? t(X)``.  One probe runs the parity program whose
    well-founded model leaves ``p(a)`` undefined.
    """

    name = "paper-deepening"
    rate = 600
    answer_every = 10
    #: Times each literal of ``paper_chain_literals`` is asked per cycle of
    #: nine.  The atoms ``t``, ``s``, ``q`` are the cheap kind (30% of the
    #: queries) and the other three the dearer one (60%), so the median falls
    #: inside the dearer kind and p95 inside ``? t(X)`` whatever the seed.
    literal_mix = (1, 2, 1, 1, 2, 2)

    def __init__(self, scale: dict):
        self.chains = scale["paper_chains"]

    def inputs(self, seed: int):
        return paper_example_program(self.chains)

    def setup(self, inputs) -> WellFoundedEngine:
        program, database = inputs
        engine = WellFoundedEngine(program, database)
        engine.model()
        return engine

    def stream(self, engine: WellFoundedEngine, inputs, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        everyone = {("0",)} | {(f"c{i}",) for i in range(1, self.chains + 1)}
        kinds = itertools.cycle(
            [kind for kind, weight in enumerate(self.literal_mix) for _ in range(weight)]
        )
        for position in itertools.count(1):
            if position % self.answer_every == 0:
                yield Op("query", "answer-t", lambda: engine.answer("? t(X)"),
                         lambda got: names(got) == everyone)
                continue
            chain = f"c{rng.randint(1, self.chains)}"
            query, want = list(oracles.paper_chain_literals(chain).items())[next(kinds)]
            yield Op("query", f"literal {query.replace(chain, 'c')}",
                     lambda q=query: engine.holds(q), lambda got, want=want: got is want)

    def engines(self, engine) -> list:
        return [engine]

    def checks(self, engine: WellFoundedEngine, inputs) -> list[Check]:
        """The parity probe: a known wrong answer, counted as a failure."""
        got = WellFoundedEngine(oracles.PARITY_PROGRAM).literal_value(
            parse_atom(oracles.PARITY_ATOM)
        )
        return [
            (
                f"parity probe {oracles.PARITY_ATOM}: expected "
                f"{oracles.PARITY_EXPECTED}, got {got}",
                got == oracles.PARITY_EXPECTED,
                "convergence is a heuristic: the engine reports the parity "
                "program converged with p(a) two-valued (ROADMAP open item)",
            )
        ]


# ---------------------------------------------------------------------------
# scenario-serve
# ---------------------------------------------------------------------------


def _fingerprint(model) -> tuple:
    return (model.true_atoms(), model.false_atoms(), model.undefined_atoms())


def _is_open(query_text: str) -> bool:
    """Open CQs are answered by ``answer``, the rest by ``holds`` (as in replay)."""
    query = parse_query(query_text)
    return bool(query.variables()) and not query.negative


def _ask(engine, query_text: str, is_open: bool):
    if is_open:
        return names(engine.answer(query_text))
    return engine.holds(query_text)


@dataclass
class _Served:
    bundle: object
    engine: MaterializedEngine
    is_open: dict = field(default_factory=dict)
    events: Optional[Iterator] = None
    rounds: int = 0
    #: answers the stream gave since the last update, checked at checkpoints
    answers: dict = field(default_factory=dict)


class ScenarioServe:
    """All registered scenarios, served warm with writes between reads.

    The five scenarios' traces are interleaved round-robin.  Stream answers
    are kept until the next update of their scenario; at each trace
    checkpoint (untimed) they and every scenario query are compared with a
    freshly built :class:`WellFoundedEngine`, and ``model()`` with
    ``scratch_model()``.
    """

    name = "scenario-serve"
    rate = 1100
    trace_length = 4000

    def __init__(self, scale: dict):
        self.size = scale["scenario_size"]
        self.check_every = scale["scenario_check_every"]

    def inputs(self, seed: int) -> list:
        # the registry's own build seed: the benchmark seed drives the traces
        return [build_scenario(name, size=self.size) for name in scenario_names()]

    def setup(self, bundles) -> list[_Served]:
        served = []
        for bundle in bundles:
            engine = MaterializedEngine(bundle.program, bundle.database, backend="columnar")
            engine.model()
            is_open = {query: _is_open(query) for query in bundle.queries}
            served.append(_Served(bundle, engine, is_open))
        return served

    def _trace(self, item: _Served, seed: int) -> Iterator:
        pool = item.bundle.dynamic_facts
        present = set(item.engine.edb) & set(pool)
        item.rounds += 1
        return iter(
            generate_trace(
                pool,
                item.bundle.queries,
                length=self.trace_length,
                seed=seed * 1009 + item.rounds,
                initially_present=present,
                checkpoint_every=self.check_every,
            )
        )

    def stream(self, served: list[_Served], bundles, seed: int) -> Iterator[Op]:
        for item in served:
            item.events = self._trace(item, seed)
        while True:
            for item in served:
                event = next(item.events, None)
                if event is None:
                    item.events = self._trace(item, seed)
                    event = next(item.events)
                yield self._op(item, event)

    def _op(self, item: _Served, event) -> Op:
        engine = item.engine
        if event.kind == "insert":
            item.answers.clear()
            return Op("update", "insert", lambda a=event.atom: engine.add_facts([a]))
        if event.kind == "retract":
            item.answers.clear()
            return Op("update", "retract", lambda a=event.atom: engine.retract_facts([a]))
        if event.kind == "query":
            def remember(got, query=event.query):
                item.answers[query] = got
                return True

            return Op("query", "trace-query",
                      lambda q=event.query: _ask(engine, q, item.is_open[q]), remember)
        return Op("check", "checkpoint", lambda: self.checkpoint(item))

    def engines(self, served: list[_Served]) -> list:
        return [item.engine for item in served]

    def checks(self, served: list[_Served], bundles) -> list[Check]:
        """A last checkpoint on every scenario, after the stream."""
        return [(label, ok, None) for item in served for label, ok in self.checkpoint(item)]

    def checkpoint(self, item: _Served) -> list[tuple[str, bool]]:
        engine = item.engine
        oracle = WellFoundedEngine(item.bundle.program, Database(engine.edb))
        results = []
        for query in item.bundle.queries:
            want = _ask(oracle, query, item.is_open[query])
            got = _ask(engine, query, item.is_open[query])
            results.append((f"{item.bundle.name} {query}", got == want))
            if query in item.answers:
                results.append(
                    (f"{item.bundle.name} stream {query}", item.answers[query] == want)
                )
        results.append(
            (
                f"{item.bundle.name} model == scratch_model",
                _fingerprint(engine.model()) == _fingerprint(engine.scratch_model()),
            )
        )
        return results


# ---------------------------------------------------------------------------
# edb-serve
# ---------------------------------------------------------------------------


@dataclass
class EdbInputs:
    rules: object
    facts: list[Atom]
    core: list[str]
    background: list[str]
    #: the oracle's copy of the EDB, updated by the stream
    oracle: "EdbState" = None


class EdbState:
    """The oracle's copy of the EDB, as strings."""

    def __init__(self, inputs: EdbInputs):
        self.successors: dict[str, set[str]] = {}
        self.nodes: set[str] = set()
        self.sources: set[str] = set()
        for atom in inputs.facts:
            args = [str(term) for term in atom.args]
            if atom.predicate == "edge":
                self.add_edge(*args)
            elif atom.predicate == "node":
                self.nodes.add(args[0])
            elif atom.predicate == "source":
                self.sources.add(args[0])

    def has_edge(self, left: str, right: str) -> bool:
        return right in self.successors.get(left, ())

    def add_edge(self, left: str, right: str) -> None:
        self.successors.setdefault(left, set()).add(right)

    def remove_edge(self, left: str, right: str) -> None:
        self.successors[left].discard(right)

    def reach(self) -> set[str]:
        return oracles.reachable(self.sources, self.successors)


def _fact(predicate: str, *args: str) -> Atom:
    return Atom(predicate, tuple(Constant(arg) for arg in args))


class EdbServe:
    """A 5×10⁴-fact reachability EDB bulk-loaded, then updated and queried.

    Each update is followed by one query, which pays the model refresh.
    Updates: retract a core-chain edge and re-add it (DRed over the reach
    atoms below it), toggle a ``node`` fact (flips ``unreachable``), insert a
    new background edge.
    """

    name = "edb-serve"
    rate = 37
    #: A fixed mix of update kinds, each followed by one query.  The queries
    #: after a core-edge update are the cheaper kind; at one in five they stay
    #: below the median whatever the seed.
    schedule = ("core-edge", "node", "background-edge", "node", "background-edge")

    def __init__(self, scale: dict):
        self.num_facts = scale["edb_facts"]

    def inputs(self, seed: int) -> EdbInputs:
        rules, facts = large_edb_reachability(self.num_facts, seed=seed)
        core, background = set(), set()
        for atom in facts:
            for term in atom.args:
                name = str(term)
                (core if name.startswith("k") else background).add(name)
        order = lambda name: int(name[1:])  # noqa: E731 - k<i> / b<i> numbering
        inputs = EdbInputs(
            rules, facts, sorted(core, key=order),
            sorted((b for b in background if b.startswith("b")), key=order),
        )
        inputs.oracle = EdbState(inputs)
        return inputs

    def setup(self, inputs: EdbInputs) -> MaterializedEngine:
        engine = MaterializedEngine(inputs.rules, inputs.facts, backend="columnar")
        engine.model()
        return engine

    def stream(self, engine: MaterializedEngine, inputs: EdbInputs, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        state = inputs.oracle
        core = inputs.core
        cut: Optional[tuple[str, str]] = None
        core_ops = 0
        for kind in itertools.cycle(self.schedule):
            if kind == "core-edge":
                core_ops += 1
                if cut is None:
                    i = rng.randrange(len(core) - 1)
                    cut = (core[i], core[i + 1])
                    state.remove_edge(*cut)
                    yield Op("update", "retract-core-edge",
                             lambda a=_fact("edge", *cut): engine.retract_facts([a]))
                else:
                    state.add_edge(*cut)
                    yield Op("update", "readd-core-edge",
                             lambda a=_fact("edge", *cut): engine.add_facts([a]))
                    cut = None
                reach = state.reach()
                if core_ops % 2:
                    node = rng.choice(core)
                    want = node in reach
                    yield Op("query", "reach", lambda q=f"? reach({node})": engine.holds(q),
                             lambda got, want=want: got is want)
                else:
                    want = {(node,) for node in oracles.frontier(reach, state.successors)}
                    yield Op("query", "answer-frontier", lambda: engine.answer("? frontier(X)"),
                             lambda got, want=want: names(got) == want)
            elif kind == "node":
                node = rng.choice(core if rng.random() < 0.5 else inputs.background)
                if node in state.nodes:
                    state.nodes.discard(node)
                    yield Op("update", "retract-node",
                             lambda a=_fact("node", node): engine.retract_facts([a]))
                else:
                    state.nodes.add(node)
                    yield Op("update", "add-node",
                             lambda a=_fact("node", node): engine.add_facts([a]))
                want = node in state.nodes and node not in state.reach()
                yield Op("query", "unreachable",
                         lambda q=f"? unreachable({node})": engine.holds(q),
                         lambda got, want=want: got is want)
            else:
                while True:
                    edge = (rng.choice(inputs.background), rng.choice(inputs.background))
                    if edge[0] != edge[1] and not state.has_edge(*edge):
                        break
                state.add_edge(*edge)
                yield Op("update", "insert-background-edge",
                         lambda a=_fact("edge", *edge): engine.add_facts([a]))
                want = edge[1] not in state.reach()
                yield Op("query", "edge-not-reach",
                         lambda q=f"? edge({edge[0]}, {edge[1]}), not reach({edge[1]})":
                         engine.holds(q),
                         lambda got, want=want: got is want)

    def engines(self, engine) -> list:
        return [engine]

    def checks(self, engine: MaterializedEngine, inputs: EdbInputs) -> list[Check]:
        """The whole maintained model against the oracle, after the stream."""
        reach = inputs.oracle.reach()
        unreachable = {(node,) for node in inputs.oracle.nodes if node not in reach}
        return [
            ("model reach", names(engine.answer("? reach(X)")) == {(n,) for n in reach}, None),
            ("model unreachable", names(engine.answer("? unreachable(X)")) == unreachable, None),
        ]


WORKLOADS = {cls.name: cls for cls in (ChainCold, PaperDeepening, ScenarioServe, EdbServe)}
