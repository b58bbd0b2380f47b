"""Improvement rules: selection procedures over candidate edge sets.

Every rule obeys the same axioms: a nonempty input yields a nonempty
output, the output is a subset of the input, and no source node keeps more
than one outgoing edge. Rules are deterministic given their identity (name
plus optional seed), which keeps iteration traces reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable

from .valuation import GameIndex

Edge = tuple[int, int]


class RuleContext:
    """What a rule may ask about the current iteration, answered from each
    player's encoded valuation (``Valuation.codes`` or a solver's value
    array) over ``gi``; a player without one is ``None``. Player 1's codes
    are negated, so each player prefers higher codes."""

    __slots__ = ("gi", "codes_by_owner")

    def __init__(self, gi: GameIndex, codes0: Sequence[int] | None, codes1: Sequence[int] | None):
        self.gi = gi
        self.codes_by_owner = (codes0, codes1)  # indexed by player

    def owner(self, v: int) -> int:
        return self.gi.owner[self.gi.index[v]]

    def prefers(self, owner: int, a: int, b: int) -> bool:
        """Strictly better target ``a`` over ``b`` for ``owner``'s nodes,
        under that owner's current valuation."""
        codes = self.codes_by_owner[owner]
        if codes is None:
            raise ValueError(f"no valuation available for player {owner}")
        return codes[self.gi.index[a]] > codes[self.gi.index[b]]


@dataclass(frozen=True)
class ImprovementRule:
    """A named selection procedure; ``seed`` only matters for random rules."""

    name: str
    select: Callable[[list[Edge], "RuleContext | None"], list[Edge]]
    seed: int | None = None


def _switch_all(candidates: list[Edge], ctx: RuleContext | None) -> list[Edge]:
    assert ctx is not None
    best: dict[int, int] = {}
    for v, w in candidates:
        if v not in best:
            best[v] = w
            continue
        cur = best[v]
        if w == cur:
            continue
        owner = ctx.owner(v)
        if ctx.prefers(owner, w, cur) or (w < cur and not ctx.prefers(owner, cur, w)):
            best[v] = w
    return sorted(best.items())


def _single_lowest(candidates: list[Edge], ctx: RuleContext | None) -> list[Edge]:
    if not candidates:
        return []
    return [min(candidates)]


def _fold_seed(seed: int, edges: list[Edge]) -> int:
    # tuple hashes are salted per process; fold to a portable integer seed
    h = seed & 0xFFFFFFFFFFFFFFFF
    for v, w in edges:
        h = (h * 1000003 + v + 1) & 0xFFFFFFFFFFFFFFFF
        h = (h * 1000003 + w + 1) & 0xFFFFFFFFFFFFFFFF
    return h


def _random_subset(seed: int) -> Callable[[list[Edge], "RuleContext | None"], list[Edge]]:
    def select(candidates: list[Edge], ctx: RuleContext | None) -> list[Edge]:
        if not candidates:
            return []
        ordered = sorted(candidates)
        by_source: dict[int, list[int]] = {}
        for v, w in ordered:
            by_source.setdefault(v, []).append(w)
        rng = random.Random(_fold_seed(seed, ordered))
        while True:
            picked = []
            for v, targets in by_source.items():
                slot = rng.randrange(len(targets) + 1)
                if slot < len(targets):
                    picked.append((v, targets[slot]))
            if picked:
                return picked

    return select


def switch_all_rule() -> ImprovementRule:
    """One improving edge per node that has one; the edge with the best
    target for the node's owner, smallest target id on ties."""
    return ImprovementRule("all", _switch_all)


def single_lowest_rule() -> ImprovementRule:
    """Exactly the candidate edge with the smallest (source, target) pair."""
    return ImprovementRule("single", _single_lowest)


def random_subset_rule(seed: int) -> ImprovementRule:
    """A uniformly sampled nonempty sub-selection with at most one edge per
    source; a pure function of (seed, candidate set)."""
    return ImprovementRule("random", _random_subset(seed), seed)


def make_rule(name: str, seed: int | None = None) -> ImprovementRule:
    if name == "all":
        return switch_all_rule()
    if name == "single":
        return single_lowest_rule()
    if name == "random":
        return random_subset_rule(0 if seed is None else seed)
    raise ValueError(f"unknown improvement rule {name!r}")
