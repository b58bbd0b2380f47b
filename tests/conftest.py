"""Shared test helpers: random game generators, a strategy subgraph and an
SCC-based admissibility check that is independent of the valuation engine."""

from __future__ import annotations

import random

from dataclasses import dataclass

from sinkgames.game import PLAYER0, PLAYER1, ParityGame, Strategy, check_strategy
from sinkgames.reduction import reduce_game


@dataclass(frozen=True)
class StrategySubgraph:
    """The base game with the fixed player's moves pinned to their choices."""

    base: ParityGame
    fixed: Strategy

    def successors(self, v: int) -> tuple[int, ...]:
        if self.base.owner(v) == self.fixed.player:
            return (self.fixed.choice[v],)
        return self.base.successors(v)


def strategy_subgraph(game: ParityGame, strategy: Strategy) -> StrategySubgraph:
    """Restrict the fixed player's nodes to their chosen edge; the base game
    is shared, not copied."""
    check_strategy(game, strategy)
    return StrategySubgraph(game, strategy)


def random_parity_game(
    rng: random.Random, min_nodes: int = 1, max_nodes: int = 7, max_degree: int = 3
) -> ParityGame:
    """An arbitrary small parity game (not necessarily a sink game)."""
    n = rng.randint(min_nodes, max_nodes)
    # owner, then priority, node by node: the draw order fixes every seeded game
    owners, priorities = zip(*[(rng.randint(0, 1), rng.randint(0, 2 * n)) for _ in range(n)])
    successors = [rng.sample(range(n), rng.randint(1, min(max_degree, n))) for _ in range(n)]
    return ParityGame(range(n), owners, priorities, [None] * n, successors)


def random_sink_game(rng: random.Random, max_nodes: int = 8) -> ParityGame:
    """A valid sink game: either a cross-owner template where every node can
    exit to the sink, or the reduction of a small arbitrary game."""
    if rng.random() < 0.5:
        for _ in range(50):
            source = random_parity_game(rng, min_nodes=1, max_nodes=3, max_degree=2)
            reduced, _ = reduce_game(source)
            if reduced.num_nodes <= max_nodes:
                return reduced
    n = rng.randint(3, max_nodes)
    owners = [rng.randint(0, 1) for _ in range(n)]
    priorities = [0] + [rng.randint(1, 2 * n) for _ in range(1, n)]
    successors = [(0,)]
    for i in range(1, n):
        other = [j for j in range(1, n) if owners[j] != owners[i]]
        rng.shuffle(other)
        take = rng.randint(min(1, len(other)), min(3, len(other)))
        succs = [0] + other[:take]
        rng.shuffle(succs)
        successors.append(succs)
    return ParityGame(range(n), owners, priorities, [None] * n, successors, sink=0)


def is_admissible_scc(game: ParityGame, strategy: Strategy) -> bool:
    """Cycle-enumeration admissibility: no cycle avoiding the sink in the
    strategy subgraph may have a top priority of the opponent's parity."""
    sub = strategy_subgraph(game, strategy)
    bad_parity = 1 if strategy.player == PLAYER0 else 0
    priorities = sorted(
        {game.priority(v) for v in game.node_ids if game.priority(v) % 2 == bad_parity},
        reverse=True,
    )
    for q in priorities:
        allowed = {
            v for v in game.node_ids if v != game.sink and game.priority(v) <= q
        }
        tops = {v for v in allowed if game.priority(v) == q}
        if tops and _cycle_through(sub, allowed, tops):
            return False
    return True


def _cycle_through(sub, allowed: set[int], targets: set[int]) -> bool:
    """Does a cycle within ``allowed`` pass through one of ``targets``?"""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]

    def strongconnect(root: int) -> None:
        work = [(root, iter(_succs(sub, root, allowed)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(_succs(sub, w, allowed))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if not advanced:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    sccs.append(component)

    for v in allowed:
        if v not in index:
            strongconnect(v)
    for component in sccs:
        cyclic = len(component) > 1 or component[0] in _succs(sub, component[0], allowed)
        if cyclic and targets.intersection(component):
            return True
    return False


def _succs(sub, v: int, allowed: set[int]) -> list[int]:
    return [w for w in sub.successors(v) if w in allowed]


def random_strategy(game: ParityGame, player: int, rng: random.Random) -> Strategy:
    return Strategy(
        player, {v: rng.choice(game.successors(v)) for v in game.nodes_of(player)}
    )


def random_admissible_strategy(
    game: ParityGame, player: int, rng: random.Random, attempts: int = 300
) -> Strategy | None:
    """Rejection-sample an admissible strategy, checked by the SCC test."""
    for _ in range(attempts):
        candidate = random_strategy(game, player, rng)
        if is_admissible_scc(game, candidate):
            return candidate
    return None


def admissible_pair(game: ParityGame, rng: random.Random) -> tuple[Strategy, Strategy] | None:
    sigma = random_admissible_strategy(game, PLAYER0, rng)
    tau = random_admissible_strategy(game, PLAYER1, rng)
    if sigma is None or tau is None:
        return None
    return sigma, tau
