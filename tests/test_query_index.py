"""The indexed query evaluator against a naive scan oracle.

:func:`~repro.lang.queries.evaluate_query` and
:func:`~repro.lang.queries.query_holds` probe each model's
:class:`~repro.lang.queries.ArgumentIndex` on the positions a partial
homomorphism binds.  The oracle below shares none of that code: it extends
every binding by scanning all true atoms with its own matcher, then checks
negated atoms with ``is_false``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import DatalogWellFoundedModel
from repro.lang.atoms import Atom
from repro.lang.queries import (
    ConjunctiveQuery,
    NormalBCQ,
    evaluate_query,
    query_holds,
)
from repro.lang.terms import Constant, FunctionTerm, Variable
from repro.lp.interpretation import Interpretation
from repro.lp.wfs import WellFoundedModel

# -- the oracle ---------------------------------------------------------------


def _naive_match(pattern: Atom, target: Atom, binding: dict) -> "dict | None":
    if pattern.predicate != target.predicate or len(pattern.args) != len(target.args):
        return None
    extended = dict(binding)
    for wanted, got in zip(pattern.args, target.args):
        if isinstance(wanted, Variable):
            if extended.setdefault(wanted, got) != got:
                return None
        elif wanted != got:
            return None
    return extended


def _naive_bindings(positive, true_atoms) -> list[dict]:
    bindings: list[dict] = [{}]
    for pattern in positive:
        bindings = [
            extended
            for binding in bindings
            for atom in true_atoms
            if (extended := _naive_match(pattern, atom, binding)) is not None
        ]
    return bindings


def _ground(atom: Atom, binding: dict) -> Atom:
    return Atom(atom.predicate, tuple(binding.get(arg, arg) for arg in atom.args))


def naive_holds(query: NormalBCQ, model) -> bool:
    """Scan every true atom for every positive literal; negatives via ``is_false``."""
    true_atoms = list(model.true_atoms())
    return any(
        all(model.is_false(_ground(atom, binding)) for atom in query.negative)
        for binding in _naive_bindings(query.positive, true_atoms)
    )


def naive_answers(query: ConjunctiveQuery, model) -> set:
    true_atoms = list(model.true_atoms())
    return {
        tuple(binding[v] for v in query.answer_variables)
        for binding in _naive_bindings(query.atoms, true_atoms)
    }


# -- inputs -------------------------------------------------------------------

_A, _B, _C = Constant("a"), Constant("b"), Constant("c")
_VALUES = [_A, _B, _C, FunctionTerm("f", (_A,)), FunctionTerm("g", (_A, _B))]
_X, _Y, _Z = Variable("X"), Variable("Y"), Variable("Z")
#: predicate -> arity; ``r`` is nullary
_SCHEMA = {"p": 2, "q": 1, "r": 0, "s": 3}


@st.composite
def _model_atoms(draw):
    predicate = draw(st.sampled_from(sorted(_SCHEMA)))
    args = draw(st.lists(st.sampled_from(_VALUES), min_size=_SCHEMA[predicate],
                         max_size=_SCHEMA[predicate]))
    return Atom(predicate, tuple(args))


@st.composite
def _three_valued(draw):
    """Disjoint true / false / undefined atom sets."""
    universe = draw(st.lists(_model_atoms(), max_size=30, unique=True))
    values = draw(st.lists(st.sampled_from("tfu"), min_size=len(universe),
                           max_size=len(universe)))
    true = {a for a, v in zip(universe, values) if v == "t"}
    false = {a for a, v in zip(universe, values) if v == "f"}
    return true, false, set(universe)


def _query_atom(draw, variables):
    predicate = draw(st.sampled_from(sorted(_SCHEMA)))
    pool = [_A, _B, FunctionTerm("f", (_A,))] + variables
    args = draw(st.lists(st.sampled_from(pool), min_size=_SCHEMA[predicate],
                         max_size=_SCHEMA[predicate]))
    return Atom(predicate, tuple(args))


@st.composite
def _nbcqs(draw):
    positive = [_query_atom(draw, [_X, _Y, _Z]) for _ in range(draw(st.integers(1, 3)))]
    bound = sorted({arg for atom in positive for arg in atom.args
                    if isinstance(arg, Variable)}, key=str)
    negative = [_query_atom(draw, bound) for _ in range(draw(st.integers(0, 2)))]
    # a negated atom may only use variables of the positive part
    negative = [a for a in negative if all(not isinstance(t, Variable) or t in bound
                                           for t in a.args)]
    return NormalBCQ(tuple(positive), tuple(negative))


class _Segment:
    """A stand-in chase segment: only its labels are read."""

    def __init__(self, labels):
        self._labels = frozenset(labels)

    def labels(self):
        return self._labels


def _models(true, false, universe):
    """The same three-valued content under every model class."""
    wfs = WellFoundedModel(Interpretation(true, false), universe)
    return [
        wfs,
        DatalogWellFoundedModel(
            WellFoundedModel(Interpretation(true, false), universe),
            _Segment(universe), depth=1, converged=True, iterations=1,
        ),
        Interpretation(true, false),
    ]


# -- properties ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_three_valued(), _nbcqs())
def test_query_holds_matches_the_scan_oracle(content, query):
    true, false, universe = content
    for model in _models(true, false, universe):
        assert query_holds(query, model) == naive_holds(query, model)
        # asked twice: the second call reads the index the first one built
        assert query_holds(query, model) == naive_holds(query, model)
    # plain atom collections are two-valued (closed world)
    for atoms in (set(true), frozenset(true), sorted(true, key=str)):
        model = _models(true, set(universe) - true, universe)[0]
        assert query_holds(query, atoms) == naive_holds(query, model)


@settings(max_examples=150, deadline=None)
@given(_three_valued(), _nbcqs(), st.data())
def test_evaluate_query_matches_the_scan_oracle(content, nbcq, data):
    true, false, universe = content
    variables = sorted(nbcq.variables(), key=str)
    answer_variables = data.draw(st.lists(st.sampled_from(variables), unique=True)
                                 if variables else st.just([]))
    query = ConjunctiveQuery(nbcq.positive, tuple(answer_variables))
    for model in _models(true, false, universe):
        assert evaluate_query(query, model) == naive_answers(query, model)
    assert evaluate_query(query, true) == naive_answers(query, _models(true, false, universe)[0])


def test_interpretation_rebuilds_its_index_after_growing():
    p_ab = Atom("p", (_A, _B))
    p_ac = Atom("p", (_A, _C))
    query = ConjunctiveQuery((Atom("p", (_A, _Y)),), (_Y,))
    interpretation = Interpretation([p_ab])
    assert evaluate_query(query, interpretation) == {(_B,)}
    interpretation.add_true(p_ac)
    assert evaluate_query(query, interpretation) == {(_B,), (_C,)}
    interpretation.update(Interpretation([Atom("p", (_A, _A))]))
    assert evaluate_query(query, interpretation) == {(_A,), (_B,), (_C,)}


def test_undefined_atoms_satisfy_neither_polarity():
    q_a, q_b, r = Atom("q", (_A,)), Atom("q", (_B,)), Atom("r", ())
    model = WellFoundedModel(Interpretation([q_a, q_b]), [q_a, q_b, r])
    assert not query_holds(NormalBCQ((Atom("q", (_X,)),), (r,)), model)
    assert not query_holds(NormalBCQ((r,)), model)
    model = WellFoundedModel(Interpretation([q_a, q_b], [r]), [q_a, q_b, r])
    assert query_holds(NormalBCQ((Atom("q", (_X,)),), (r,)), model)


def test_three_valued_object_without_an_index_is_rejected():
    """Such an object is not silently read as a closed-world atom set."""

    class NoIndex:
        def is_true(self, atom):
            return False

        def is_false(self, atom):
            return False

        def true_atoms(self):
            return ()

    with pytest.raises(TypeError, match="argument_index"):
        query_holds(NormalBCQ((Atom("q", (_A,)),)), NoIndex())
