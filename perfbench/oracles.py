"""Expected answers computed without any ``repro`` evaluation code.

The reachability oracles work on plain strings (constant names); the paper
oracle restates the truth values Examples 4 and 9 of the paper give for each
chain.  The scenario workload, whose programs have no hand-written oracle,
compares against a freshly built engine instead (see ``workloads.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping


def reachable(sources: Iterable[str], successors: Mapping[str, Iterable[str]]) -> set[str]:
    """Every node reachable from *sources* along *successors* (BFS)."""
    seen = set(sources)
    queue = deque(seen)
    while queue:
        node = queue.popleft()
        for succ in successors.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return seen


def frontier(reach: set[str], successors: Mapping[str, Iterable[str]]) -> set[str]:
    """``frontier(X) ← reach(X), edge(X, Y), not reach(Y)``."""
    return {
        node
        for node in reach
        if any(succ not in reach for succ in successors.get(node, ()))
    }


def paper_chain_literals(chain: str) -> dict[str, bool]:
    """What Examples 4/9 state for the chain seeded by ``r(c, c, c_1), p(c, c)``.

    Keys are queries, values whether they hold: ``t(c)`` is true, ``s(c)``
    false, ``q(c_1)`` false and ``p(c, c_1)`` true.  Falsity is asked as a
    negated literal next to a true one, so an undefined atom fails the check.
    """
    first = f"{chain}_1"
    return {
        f"? t({chain})": True,
        f"? p({chain}, {first})": True,
        f"? s({chain})": False,
        f"? q({first})": False,
        f"? p({chain}, {chain}), not s({chain})": True,
        f"? r({chain}, {chain}, {first}), not q({first})": True,
    }


#: The guarded program whose well-founded model leaves ``p(a)`` undefined:
#: every ``p`` on the infinite ``r`` chain depends negatively on the next one.
PARITY_PROGRAM = """
start(a).
start(X) -> exists Y r(X, Y).
r(X, Y) -> exists Z r(Y, Z).
r(X, Y), not p(Y) -> p(X).
"""
PARITY_ATOM = "p(a)"
PARITY_EXPECTED = "undefined"
