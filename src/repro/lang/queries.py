"""Conjunctive queries, BCQs and normal BCQs (Sec. 2.1 and 2.3 of the paper).

* :class:`ConjunctiveQuery` — ``Q(X) = ∃Y Φ(X, Y)`` with answer variables
  ``X`` and a conjunction of atoms Φ.
* A *BCQ* is a conjunctive query without answer variables; represented by the
  same class with ``answer_variables == ()``.
* :class:`NormalBCQ` (NBCQ) — an existentially closed conjunction of atoms and
  negated atoms (Sec. 2.3).  A BCQ is the special case with no negated atoms.

Evaluation is defined against either

* a plain set of ground atoms (two-valued, closed world): a negated query atom
  holds iff no matching atom is in the set; or
* any *three-valued* interpretation object exposing ``is_true(atom)``,
  ``is_false(atom)`` and an :class:`ArgumentIndex` over its true atoms
  (e.g. :class:`repro.lp.interpretation.Interpretation` or the well-founded
  model produced by the Datalog± engine): a negated query atom ``not b``
  holds for a homomorphism μ iff ``μ(b)`` is *false* (not merely "not
  true"), exactly as in the paper's definition of NBCQ satisfaction.

A model keeps its index for as long as it is unchanged, so a query costs
the candidates its bound positions select, not the size of the model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Protocol, Sequence, Union, runtime_checkable

from ..exceptions import IllFormedRuleError
from .atoms import Atom, Literal, variables_of_atoms
from .substitution import Substitution, match
from .terms import Constant, Term, Variable, is_ground_term

__all__ = [
    "ArgumentIndex",
    "ConjunctiveQuery",
    "NormalBCQ",
    "ThreeValuedLike",
    "evaluate_query",
    "query_holds",
    "query_literals",
    "as_conjunctive_query",
]


@runtime_checkable
class ThreeValuedLike(Protocol):
    """Structural protocol for three-valued interpretations.

    Anything with ``is_true``/``is_false`` membership tests and an
    :class:`ArgumentIndex` over its true atoms can serve as the evaluation
    structure for NBCQs (the well-founded model classes implement this
    protocol and keep their index for as long as they are unchanged).
    """

    def is_true(self, atom: Atom) -> bool:  # pragma: no cover - protocol
        ...

    def is_false(self, atom: Atom) -> bool:  # pragma: no cover - protocol
        ...

    def true_atoms(self) -> Iterable[Atom]:  # pragma: no cover - protocol
        ...

    def argument_index(self) -> "ArgumentIndex":  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``Q(X) = ∃Y Φ(X, Y)``.

    ``answer_variables`` is the tuple ``X`` (empty for a BCQ) and ``atoms`` is
    the conjunction Φ.  Constants may occur in the atoms; nulls may not.
    """

    atoms: tuple[Atom, ...]
    answer_variables: tuple[Variable, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "answer_variables", tuple(self.answer_variables))
        if not self.atoms:
            raise IllFormedRuleError("a conjunctive query needs at least one atom")
        body_vars = variables_of_atoms(self.atoms)
        missing = set(self.answer_variables) - body_vars
        if missing:
            names = ", ".join(sorted(str(v) for v in missing))
            raise IllFormedRuleError(
                f"answer variables {{{names}}} do not occur in the query body"
            )

    def is_boolean(self) -> bool:
        """``True`` iff the query has no answer variables (a BCQ)."""
        return not self.answer_variables

    def variables(self) -> set[Variable]:
        """All variables of the query."""
        return variables_of_atoms(self.atoms)

    def existential_variables(self) -> set[Variable]:
        """The non-answer variables ``Y``."""
        return self.variables() - set(self.answer_variables)

    def predicates(self) -> set[str]:
        """Predicate names used by the query."""
        return {a.predicate for a in self.atoms}

    def __str__(self) -> str:
        head = "Q(" + ", ".join(str(v) for v in self.answer_variables) + ")"
        return f"{head} :- {', '.join(str(a) for a in self.atoms)}"


@dataclass(frozen=True)
class NormalBCQ:
    """A normal Boolean conjunctive query (Sec. 2.3).

    ``∃X p₁(X) ∧ … ∧ pₘ(X) ∧ ¬p_{m+1}(X) ∧ … ∧ ¬p_{m+n}(X)`` with m ≥ 1 and
    n ≥ 0.  ``positive`` are the p₁…pₘ and ``negative`` the ¬-free atoms
    p_{m+1}…p_{m+n}.
    """

    positive: tuple[Atom, ...]
    negative: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "positive", tuple(self.positive))
        object.__setattr__(self, "negative", tuple(self.negative))
        if not self.positive:
            raise IllFormedRuleError("an NBCQ needs at least one positive atom (m >= 1)")

    @classmethod
    def from_literals(cls, literals: Iterable[Literal]) -> "NormalBCQ":
        """Build an NBCQ from a collection of literals."""
        pos = tuple(l.atom for l in literals if l.positive)
        negs = tuple(l.atom for l in literals if not l.positive)
        return cls(pos, negs)

    def literals(self) -> tuple[Literal, ...]:
        """The query as literals, positives first."""
        return tuple(Literal(a, True) for a in self.positive) + tuple(
            Literal(a, False) for a in self.negative
        )

    def size(self) -> int:
        """The number ``n`` of literals of the query (used in Prop. 12)."""
        return len(self.positive) + len(self.negative)

    def variables(self) -> set[Variable]:
        """All variables of the query."""
        return variables_of_atoms(self.positive) | variables_of_atoms(self.negative)

    def predicates(self) -> set[str]:
        """Predicate names used by the query."""
        return {a.predicate for a in self.positive} | {a.predicate for a in self.negative}

    def is_positive(self) -> bool:
        """``True`` iff the query has no negated atoms (a plain BCQ)."""
        return not self.negative

    def __str__(self) -> str:
        parts = [str(a) for a in self.positive] + [f"not {a}" for a in self.negative]
        return "? " + ", ".join(parts)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def query_literals(
    query: Union["NormalBCQ", "ConjunctiveQuery", Literal, Atom],
) -> tuple[Literal, ...]:
    """Normalise any supported query form to a tuple of literals.

    Ground atoms become single positive literals; literals pass through;
    conjunctive queries contribute their atoms positively; NBCQs contribute
    positives first, then negatives.  This is the uniform query currency the
    rewriting subsystem (and the engine's query paths) operate on.
    """
    if isinstance(query, Atom):
        return (Literal(query, True),)
    if isinstance(query, Literal):
        return (query,)
    if isinstance(query, ConjunctiveQuery):
        return tuple(Literal(a, True) for a in query.atoms)
    if isinstance(query, NormalBCQ):
        return query.literals()
    raise TypeError(f"cannot normalise {type(query).__name__} to query literals")


def as_conjunctive_query(query: "NormalBCQ | ConjunctiveQuery") -> ConjunctiveQuery:
    """View an NBCQ without negation as a conjunctive query.

    Every variable becomes an answer variable (sorted by name, so answer
    tuples are deterministic) — the convention used by ``answer()``-style
    helpers when the user writes a query in NBCQ syntax.
    """
    if isinstance(query, ConjunctiveQuery):
        return query
    if query.negative:
        raise IllFormedRuleError(
            "a conjunctive query cannot contain negated atoms; use NBCQ evaluation"
        )
    variables = sorted(query.variables(), key=lambda v: v.name)
    return ConjunctiveQuery(query.positive, tuple(variables))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


InterpretationLike = Union[ThreeValuedLike, Iterable[Atom]]


class ArgumentIndex:
    """A lazy argument index over a fixed set of true atoms.

    Query evaluation probes it with a partially instantiated atom: the
    predicate, its arity, the positions whose arguments are already bound and
    their values.  The atoms are grouped by predicate on the first probe, and
    one hash table per ``(predicate, arity, bound positions)`` is built on
    that key's first probe and kept, so repeated queries against the same
    model cost their answer size, not the model size.  The index never
    observes later changes to the atom set: owners that mutate
    (:class:`~repro.lp.interpretation.Interpretation`) drop it and build a
    new one.
    """

    __slots__ = ("_atoms", "_by_predicate", "_tables")

    def __init__(self, atoms: Iterable[Atom]):
        self._atoms = atoms
        self._by_predicate: Optional[dict[str, list[Atom]]] = None
        #: one position keys its table by the bare term, several by a tuple
        self._tables: dict[tuple[str, int, tuple[int, ...]], dict[object, list[Atom]]] = {}

    def matching(
        self,
        predicate: str,
        arity: int,
        positions: tuple[int, ...],
        values: tuple[Term, ...],
    ) -> Sequence[Atom]:
        """The atoms of ``predicate`` carrying *values* at *positions*.

        With no bound position this is every atom of the predicate, of any
        arity (the caller's matcher checks it); otherwise only atoms of the
        given arity are returned.
        """
        by_predicate = self._by_predicate
        if by_predicate is None:
            grouped: defaultdict[str, list[Atom]] = defaultdict(list)
            for atom in self._atoms:
                grouped[atom.predicate].append(atom)
            by_predicate = self._by_predicate = grouped
        if not positions:
            return by_predicate.get(predicate, ())
        key = (predicate, arity, positions)
        table = self._tables.get(key)
        if table is None:
            built: defaultdict[object, list[Atom]] = defaultdict(list)
            candidates = [a for a in by_predicate.get(predicate, ()) if len(a.args) == arity]
            if len(positions) == 1:
                (position,) = positions
                for atom in candidates:
                    built[atom.args[position]].append(atom)
            else:
                for atom in candidates:
                    built[tuple(atom.args[i] for i in positions)].append(atom)
            table = self._tables[key] = built
        return table.get(values[0] if len(values) == 1 else values, ())


class _SetAdapter:
    """Adapt a plain set of ground atoms to the three-valued protocol.

    Truth is membership; falsity is non-membership (closed world).  This is
    the right reading for evaluating queries against a database or against the
    result of a chase.
    """

    def __init__(self, atoms: Iterable[Atom]):
        self._atoms = atoms if isinstance(atoms, (set, frozenset)) else set(atoms)
        self._index: Optional[ArgumentIndex] = None

    def is_true(self, atom: Atom) -> bool:
        return atom in self._atoms

    def is_false(self, atom: Atom) -> bool:
        return atom not in self._atoms

    def true_atoms(self) -> Iterable[Atom]:
        return self._atoms

    def argument_index(self) -> ArgumentIndex:
        if self._index is None:
            self._index = ArgumentIndex(self._atoms)
        return self._index


def _adapt(interpretation: InterpretationLike) -> ThreeValuedLike:
    """Wrap plain atom collections; pass through three-valued objects.

    An object with ``is_true``/``is_false`` but no ``argument_index`` is
    rejected rather than read as a set of atoms, which would answer it under
    the closed world.
    """
    if isinstance(interpretation, ThreeValuedLike) and not isinstance(
        interpretation, (set, frozenset, list, tuple)
    ):
        return interpretation
    if hasattr(interpretation, "is_true") and hasattr(interpretation, "is_false"):
        raise TypeError(
            f"{type(interpretation).__name__} has is_true/is_false but no "
            "argument_index(); three-valued interpretations must provide one "
            "(see ThreeValuedLike)"
        )
    return _SetAdapter(interpretation)  # type: ignore[arg-type]


def _homomorphisms(
    positive: Sequence[Atom],
    interpretation: ThreeValuedLike,
    index: ArgumentIndex,
    binding: dict[Term, Term],
) -> Iterator[dict[Term, Term]]:
    """Enumerate bindings mapping every positive atom to a true atom.

    Each atom is probed on the positions the binding already fixes: a fully
    bound atom is one ``is_true`` test, any other one lookup in the model's
    :class:`ArgumentIndex`, after which only the free positions are bound
    (and repeated variables checked).  Bindings are plain dicts, extended by
    copy; :class:`Substitution` objects are built only for function-term
    patterns and negated atoms.
    """
    if not positive:
        yield binding
        return
    first, rest = positive[0], positive[1:]
    args = first.args
    positions: list[int] = []
    values: list[Term] = []
    free: list[tuple[int, Variable]] = []
    patterned = False
    for position, arg in enumerate(args):
        if isinstance(arg, Variable):
            bound = binding.get(arg)
            if bound is None:
                free.append((position, arg))
            else:
                positions.append(position)
                values.append(bound)
        elif is_ground_term(arg):
            positions.append(position)
            values.append(arg)
        else:  # a function-term pattern with variables: left to ``match``
            patterned = True
    if len(positions) == len(args):
        if interpretation.is_true(Atom(first.predicate, tuple(values))):
            yield from _homomorphisms(rest, interpretation, index, binding)
        return
    arity = len(args)
    for candidate in index.matching(first.predicate, arity, tuple(positions), tuple(values)):
        if patterned:
            matched = match(first, candidate, Substitution(binding))
            extended = None if matched is None else dict(matched.mapping)
        else:
            extended = _bind_free(candidate.args, arity, free, binding)
        if extended is None:
            continue
        if rest:
            yield from _homomorphisms(rest, interpretation, index, extended)
        else:
            yield extended


def _bind_free(
    target: tuple[Term, ...],
    arity: int,
    free: list[tuple[int, Variable]],
    binding: dict[Term, Term],
) -> Optional[dict[Term, Term]]:
    """*binding* extended by the free variables' values in *target*, if consistent."""
    if len(target) != arity:
        return None
    extended = dict(binding)
    for position, variable in free:
        value = target[position]
        bound = extended.setdefault(variable, value)
        if bound is not value and bound != value:
            return None  # a repeated variable met two different terms
    return extended


def evaluate_query(
    query: ConjunctiveQuery,
    interpretation: InterpretationLike,
) -> set[tuple[Term, ...]]:
    """Evaluate a conjunctive query and return the set of answer tuples.

    For a BCQ the result is either ``{()}`` ("yes") or ``set()`` ("no").
    Following the paper, answer tuples range over constants and nulls; the
    caller may filter nulls out if certain answers over ``Δ`` are desired.
    """
    adapted = _adapt(interpretation)
    index = adapted.argument_index()
    answers: set[tuple[Term, ...]] = set()
    variables = query.answer_variables
    for binding in _homomorphisms(query.atoms, adapted, index, {}):
        answers.add(tuple(binding[v] for v in variables))
    return answers


def query_holds(
    query: Union[NormalBCQ, ConjunctiveQuery],
    interpretation: InterpretationLike,
) -> bool:
    """Decide whether a Boolean query is satisfied by the interpretation.

    For an :class:`NormalBCQ`, a homomorphism μ must map every positive atom
    to a *true* atom and every negated atom to a *false* atom of the
    interpretation (third truth value "undefined" satisfies neither), exactly
    as the paper defines NBCQ satisfaction in an interpretation ``I ⊆ Lit_P``.
    """
    adapted = _adapt(interpretation)
    index = adapted.argument_index()

    if isinstance(query, ConjunctiveQuery):
        positive: Sequence[Atom] = query.atoms
        negative: Sequence[Atom] = ()
    else:
        positive = query.positive
        negative = query.negative

    for binding in _homomorphisms(positive, adapted, index, {}):
        if _negatives_false(negative, binding, adapted):
            return True
    return False


def _negatives_false(
    negative: Sequence[Atom], binding: dict[Term, Term], interpretation: ThreeValuedLike
) -> bool:
    """Check that every negated atom is false (in the three-valued sense) under *hom*.

    Negated query atoms must be fully instantiated by the homomorphism; if a
    variable of a negative atom occurs in no positive atom the query is
    evaluated under the convention that the atom must be false for *every*
    instantiation — which we approximate by requiring the grounded atom to be
    ground after applying the homomorphism (the parser enforces that NBCQ
    negative variables also occur positively, so this is not hit in practice).
    """
    if not negative:
        return True
    hom = Substitution(binding)
    for atom in negative:
        instantiated = hom.apply_atom(atom)
        if not instantiated.is_ground():
            raise IllFormedRuleError(
                f"negated query atom {atom} is not fully instantiated by the positive part; "
                "every variable of a negated NBCQ atom must also occur in a positive atom"
            )
        if not interpretation.is_false(instantiated):
            return False
    return True
