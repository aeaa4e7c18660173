"""Stratification and the perfect-model (stratified) semantics.

The paper motivates the WFS as the generalisation of *stratified* negation
(which [1] had already added to Datalog±).  This module provides the
classical machinery for normal programs:

* the predicate dependency graph, with positive and negative edges;
* a stratification test and stratum assignment (negative edges must not occur
  inside a cycle of the dependency graph);
* the perfect model of a stratified program, computed stratum by stratum with
  the usual iterated least-fixpoint construction (each stratum is one
  worklist propagation over a :class:`~repro.lp.fixpoint.RuleIndex`);
* the *ground* (atom-level) analogue used by the SCC-modular well-founded
  evaluation: :func:`ground_dependency_components` condenses the atom
  dependency graph of a finite ground program into strongly connected
  components in dependencies-first order, and
  :func:`ground_component_summary` classifies each component by whether it
  contains internal negation (only those pay for the alternating unfounded
  machinery in :func:`repro.lp.wfs.well_founded_model`).

One of the classical results the test-suite re-checks empirically: on a
stratified program, the well-founded model is total and coincides with the
perfect model.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..exceptions import NotStratifiedError
from ..lang.atoms import Atom
from ..lang.queries import ArgumentIndex
from ..lang.program import NormalProgram
from ..lang.rules import NormalRule
from .fixpoint import RuleIndex
from .grounding import GroundProgram, relevant_grounding

__all__ = [
    "dependency_graph",
    "ground_dependency_components",
    "ground_component_summary",
    "stratify",
    "is_stratified",
    "perfect_model",
    "PerfectModel",
]


def dependency_graph(
    program: NormalProgram | Iterable[NormalRule],
) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """The predicate dependency graph of a normal program.

    Returns ``(positive_edges, negative_edges)`` where an edge ``(p, q)``
    means "the predicate p depends on q" (q occurs in the body of a rule whose
    head predicate is p); the edge is negative when q occurs under negation.
    """
    positive_edges: set[tuple[str, str]] = set()
    negative_edges: set[tuple[str, str]] = set()
    for rule in program:
        head_pred = rule.head.predicate
        for atom in rule.body_pos:
            positive_edges.add((head_pred, atom.predicate))
        for atom in rule.body_neg:
            negative_edges.add((head_pred, atom.predicate))
    return positive_edges, negative_edges


def ground_dependency_components(program: GroundProgram) -> list[list[Atom]]:
    """SCCs of the atom-level dependency graph, in dependencies-first order.

    The graph has an edge from every rule head to every atom of its body,
    positive *and* negative: negative edges must participate in the
    condensation too, otherwise mutually negative atoms (the win/move game's
    positions, say) would land in different components with no evaluation
    order between them.  The returned components are ordered so that every
    component appears after all components it depends on — exactly the order
    in which :func:`repro.lp.wfs.well_founded_model` evaluates them.

    The condensation itself runs in the rule index's dense atom-id space and
    is translated back to atoms here.
    """
    index = program.index()
    return [
        [index.atom_of(atom_id) for atom_id in component]
        for component in index.dependency_components_ids()
    ]


def ground_component_summary(
    program: GroundProgram,
) -> list[tuple[frozenset[Atom], bool]]:
    """The dependency components of a ground program, flagged for negation.

    Returns ``(atoms, has_internal_negation)`` pairs in dependencies-first
    order; a component has internal negation iff some rule heading into it
    negates an atom of the same component.  Components without the flag are
    resolved by a single linear positive pass in the modular WFS evaluation.
    """
    index = program.index()
    summary: list[tuple[frozenset[Atom], bool]] = []
    for component_atoms in ground_dependency_components(program):
        component = frozenset(component_atoms)
        internal_negation = any(
            atom in component
            for head in component_atoms
            for rule_id in index.rule_ids_for_head(head)
            for atom in index.neg_body(rule_id)
        )
        summary.append((component, internal_negation))
    return summary


def stratify(program: NormalProgram | Iterable[NormalRule]) -> dict[str, int]:
    """Assign a stratum (0, 1, 2, …) to every predicate of the program.

    The standard constraint system is solved by iteration to a fixpoint:

    * if p depends positively on q then ``stratum(p) >= stratum(q)``,
    * if p depends negatively on q then ``stratum(p) >= stratum(q) + 1``.

    Raises
    ------
    NotStratifiedError
        If no finite stratification exists, i.e. some predicate depends
        negatively on itself through a cycle.
    """
    rules = list(program)
    predicates: set[str] = set()
    for rule in rules:
        predicates.update(rule.predicates())
    positive_edges, negative_edges = dependency_graph(rules)

    strata: dict[str, int] = {p: 0 for p in predicates}
    # After |predicates| full passes without stabilising, some stratum exceeds
    # the number of predicates, which certifies a negative cycle.
    limit = len(predicates) + 1
    for _ in range(limit * max(1, len(predicates))):
        changed = False
        for head, dep in positive_edges:
            if strata[head] < strata[dep]:
                strata[head] = strata[dep]
                changed = True
        for head, dep in negative_edges:
            if strata[head] < strata[dep] + 1:
                strata[head] = strata[dep] + 1
                changed = True
        if not changed:
            return strata
        if any(level > limit for level in strata.values()):
            break
    raise NotStratifiedError(
        "program is not stratified: a predicate depends negatively on itself through a cycle"
    )


def is_stratified(program: NormalProgram | Iterable[NormalRule]) -> bool:
    """``True`` iff the program admits a stratification."""
    try:
        stratify(program)
    except NotStratifiedError:
        return False
    return True


class PerfectModel:
    """The perfect (stratified) model: a total two-valued model.

    Implements the three-valued protocol so it can be compared directly with
    :class:`~repro.lp.wfs.WellFoundedModel` and used for query evaluation;
    every atom is either true or false (closed world on the relevant universe).
    """

    def __init__(self, true_atoms: Iterable[Atom], universe: Iterable[Atom]):
        self._true = frozenset(true_atoms)
        self._universe = frozenset(universe) | self._true
        self._index: Optional[ArgumentIndex] = None

    def is_true(self, atom: Atom) -> bool:
        """Atom is in the perfect model."""
        return atom in self._true

    def is_false(self, atom: Atom) -> bool:
        """Atom is not in the perfect model (closed world)."""
        return atom not in self._true

    def is_undefined(self, atom: Atom) -> bool:
        """Perfect models are total: nothing is undefined."""
        return False

    def true_atoms(self) -> frozenset[Atom]:
        """The atoms of the model."""
        return self._true

    def argument_index(self) -> ArgumentIndex:
        """The query-evaluation index over the true atoms (built lazily)."""
        if self._index is None:
            self._index = ArgumentIndex(self._true)
        return self._index

    def universe(self) -> frozenset[Atom]:
        """The relevant universe the model was computed over."""
        return self._universe

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PerfectModel):
            return self._true == other._true
        return NotImplemented

    def __repr__(self) -> str:
        return f"PerfectModel({len(self._true)} true atoms)"


def perfect_model(
    program: NormalProgram | Iterable[NormalRule],
    *,
    ground: Optional[GroundProgram] = None,
    strata: Optional[Mapping[str, int]] = None,
) -> PerfectModel:
    """The perfect model of a stratified normal program.

    The grounding is computed with :func:`relevant_grounding` unless a ground
    program is supplied.  Strata are computed from the (non-ground) program
    unless supplied.  Evaluation proceeds stratum by stratum: each stratum's
    rules are evaluated by a least-fixpoint computation (one worklist
    propagation over a per-stratum rule index) in which negative body atoms
    refer to the (already fixed) lower strata.
    """
    rules = list(program)
    if strata is None:
        strata = stratify(rules)
    if ground is None:
        ground = relevant_grounding(rules)

    max_stratum = max(strata.values(), default=0)
    model: set[Atom] = set()
    for level in range(max_stratum + 1):
        level_rules = [
            r for r in ground if strata.get(r.head.predicate, 0) == level
        ]
        # Within a stratum, negation refers to lower strata only (guaranteed by
        # the stratification), so we may resolve negative bodies against the
        # model computed so far and then run a positive least fixpoint.
        resolved = []
        for rule in level_rules:
            if any(b in model for b in rule.body_neg):
                continue
            resolved.append(rule.positive_part())
        model |= RuleIndex(resolved).least_model(start=model)
    return PerfectModel(model, ground.atoms())
