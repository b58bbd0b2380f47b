"""Brute-force reference solvers used to cross-check the valuation engine.

Test-only: no library code calls it. Everything here evaluates plays by
literally walking strategy pairs with visited-node detection, and orders
play values by their count vectors (``compare``), sharing no code with the
fixpoint engine or the integer codec. It imports only data types from
``sinkgames``. It is intentionally naive and guarded by an enumeration
budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from sinkgames import NEG_INF, PLAYER0, PLAYER1, POS_INF, ParityGame, PlayValue, Strategy

LESS = -1
EQUAL = 0
GREATER = 1


def compare(a: PlayValue, b: PlayValue) -> int:
    """Total order on play values; returns -1, 0 or 1.

    For finite values the highest priority with differing counts decides:
    a is smaller when it has fewer of an even or more of an odd priority.
    """
    if a.sign != b.sign:
        return LESS if a.sign < b.sign else GREATER
    if a.sign != 0:
        return EQUAL
    ia, ib = 0, 0
    ca, cb = a.counts, b.counts
    while ia < len(ca) or ib < len(cb):
        qa = ca[ia][0] if ia < len(ca) else None
        qb = cb[ib][0] if ib < len(cb) else None
        if qb is None or (qa is not None and qa > qb):
            q, na, nb = qa, ca[ia][1], 0
            ia += 1
        elif qa is None or qb > qa:
            q, na, nb = qb, 0, cb[ib][1]
            ib += 1
        else:
            q, na, nb = qa, ca[ia][1], cb[ib][1]
            ia += 1
            ib += 1
        if na != nb:
            if q % 2 == 0:
                return LESS if na < nb else GREATER
            return GREATER if na < nb else LESS
    return EQUAL


def add_priority(a: PlayValue, priority: int) -> PlayValue:
    """Increment the count at ``priority`` by one; infinities pass through."""
    if a.sign != 0:
        return a
    out = []
    inserted = False
    for q, c in a.counts:
        if q == priority:
            out.append((q, c + 1))
            inserted = True
        elif q < priority and not inserted:
            out.append((priority, 1))
            out.append((q, c))
            inserted = True
        else:
            out.append((q, c))
    if not inserted:
        out.append((priority, 1))
    return PlayValue(0, tuple(out))


class BudgetExceededError(Exception):
    """Enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for exhaustive enumeration; defaults keep test runs fast."""

    max_nodes: int = 12
    max_strategies: int = 2**20


DEFAULT_BUDGET = EnumerationBudget()


@dataclass(frozen=True)
class OptimalResponse:
    """Node-wise optimal play values against a fixed strategy, plus one
    opposing strategy that attains them everywhere."""

    player: int
    values: dict[int, PlayValue]
    counter: Strategy


def _check_nodes(game: ParityGame, budget: EnumerationBudget) -> None:
    if game.num_nodes > budget.max_nodes:
        raise BudgetExceededError(
            f"game has {game.num_nodes} nodes, budget allows {budget.max_nodes}"
        )


def _strategy_count(game: ParityGame, player: int) -> int:
    count = 1
    for v in game.nodes_of(player):
        count *= len(set(game.successors(v)))
    return count


def all_strategies(game: ParityGame, player: int):
    """Yield every positional strategy of the player, in successor order."""
    owned = game.nodes_of(player)
    option_lists = [sorted(set(game.successors(v))) for v in owned]
    for picks in itertools.product(*option_lists):
        yield Strategy(player, dict(zip(owned, picks)))


def play_values(game: ParityGame, sigma: Strategy, tau: Strategy) -> dict[int, PlayValue]:
    """Play value of the fixed pair from every start node, by walking.

    A walk that reaches the sink yields the priority counts of the path
    before it; a walk that revisits a node yields +inf or -inf by the parity
    of the top priority on the cycle. Values are cached per start within
    this one strategy pair.
    """
    choice = {}
    choice.update(sigma.choice)
    choice.update(tau.choice)
    cache: dict[int, PlayValue] = {}
    sink = game.sink
    if sink is not None:
        cache[sink] = PlayValue.empty()
    for start in game.node_ids:
        if start in cache:
            continue
        path = []
        position = {}
        v = start
        while v not in cache and v not in position:
            position[v] = len(path)
            path.append(v)
            v = choice[v]
        if v in cache:
            value = cache[v]
        else:
            cycle = path[position[v]:]
            top = max(game.priority(u) for u in cycle)
            value = POS_INF if top % 2 == 0 else NEG_INF
            for u in cycle:
                cache[u] = value
            path = path[: position[v]]
        for u in reversed(path):
            value = add_priority(value, game.priority(u))
            cache[u] = value
    return cache


def walk_winner(game: ParityGame, sigma: Strategy, tau: Strategy, start: int) -> int:
    """Winner of the infinite play from ``start``: parity of the top
    priority on the cycle the pebble ends up in."""
    choice = {}
    choice.update(sigma.choice)
    choice.update(tau.choice)
    seen: dict[int, int] = {}
    path = []
    v = start
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = choice[v]
    cycle = path[seen[v]:]
    return max(game.priority(u) for u in cycle) % 2


def is_admissible_bruteforce(
    game: ParityGame, strategy: Strategy, budget: EnumerationBudget = DEFAULT_BUDGET
) -> bool:
    """Admissibility by exhaustion: no opposing strategy may realize a cycle
    of the opponent's parity (an infinite value of the opponent's sign)."""
    _check_nodes(game, budget)
    opponent = 1 - strategy.player
    if _strategy_count(game, opponent) > budget.max_strategies:
        raise BudgetExceededError("too many opposing strategies to enumerate")
    bad = NEG_INF if strategy.player == PLAYER0 else POS_INF
    for response in all_strategies(game, opponent):
        pair = (strategy, response) if strategy.player == PLAYER0 else (response, strategy)
        values = play_values(game, *pair)
        if any(value == bad for value in values.values()):
            return False
    return True


def enumerate_optimal_response(
    game: ParityGame, strategy: Strategy, budget: EnumerationBudget = DEFAULT_BUDGET
) -> OptimalResponse:
    """Node-wise optimal play value over all opposing positional strategies,
    plus one response attaining it everywhere.

    Raises BudgetExceededError when enumeration is too large and ValueError
    if no single response attains the optimum at all nodes simultaneously.
    """
    _check_nodes(game, budget)
    opponent = 1 - strategy.player
    if _strategy_count(game, opponent) > budget.max_strategies:
        raise BudgetExceededError("too many opposing strategies to enumerate")
    minimize = strategy.player == PLAYER0
    best: dict[int, PlayValue] = {}
    for response in all_strategies(game, opponent):
        pair = (strategy, response) if minimize else (response, strategy)
        values = play_values(game, *pair)
        if not best:
            best = dict(values)
            continue
        for v, value in values.items():
            order = compare(value, best[v])
            if (order < 0 and minimize) or (order > 0 and not minimize):
                best[v] = value
    for response in all_strategies(game, opponent):
        pair = (strategy, response) if minimize else (response, strategy)
        values = play_values(game, *pair)
        if all(compare(values[v], best[v]) == 0 for v in values):
            return OptimalResponse(strategy.player, best, response)
    raise ValueError("no single response attains the node-wise optimum")


def enumerate_optimal_strategy(
    game: ParityGame, player: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> tuple[Strategy, dict[int, PlayValue], bool]:
    """The admissible strategy whose valuation is node-wise optimal, its
    valuation, and whether that strategy is unique."""
    _check_nodes(game, budget)
    pairs = _strategy_count(game, PLAYER0) * _strategy_count(game, PLAYER1)
    if pairs > budget.max_strategies:
        raise BudgetExceededError(f"{pairs} strategy pairs exceed the budget")
    maximize = player == PLAYER0
    bad = NEG_INF if maximize else POS_INF
    valuations: list[tuple[Strategy, dict[int, PlayValue]]] = []
    for candidate in all_strategies(game, player):
        best: dict[int, PlayValue] = {}
        admissible = True
        for response in all_strategies(game, 1 - player):
            pair = (candidate, response) if maximize else (response, candidate)
            values = play_values(game, *pair)
            if any(value == bad for value in values.values()):
                admissible = False
                break
            if not best:
                best = dict(values)
            else:
                for v, value in values.items():
                    order = compare(value, best[v])
                    if (order < 0 and maximize) or (order > 0 and not maximize):
                        best[v] = value
        if admissible:
            valuations.append((candidate, best))
    if not valuations:
        raise ValueError(f"player {player} has no admissible strategy")

    def dominates(a: dict[int, PlayValue], b: dict[int, PlayValue]) -> bool:
        orders = [compare(a[v], b[v]) for v in a]
        if maximize:
            return all(o >= 0 for o in orders)
        return all(o <= 0 for o in orders)

    top, top_values = valuations[0]
    for candidate, values in valuations[1:]:
        if dominates(values, top_values):
            top, top_values = candidate, values
    for _, values in valuations:
        if not dominates(top_values, values):
            raise ValueError("no node-wise dominant admissible strategy exists")
    ties = sum(
        1
        for _, values in valuations
        if all(compare(values[v], top_values[v]) == 0 for v in values)
    )
    return top, top_values, ties == 1


def brute_force_winners(
    game: ParityGame, budget: EnumerationBudget = DEFAULT_BUDGET
) -> tuple[frozenset[int], frozenset[int]]:
    """Winning starting sets by max-min over all positional strategy pairs."""
    _check_nodes(game, budget)
    count0 = _strategy_count(game, PLAYER0)
    count1 = _strategy_count(game, PLAYER1)
    if count0 * count1 > budget.max_strategies:
        raise BudgetExceededError(f"{count0 * count1} strategy pairs exceed the budget")
    taus = list(all_strategies(game, PLAYER1))
    w0: set[int] = set()
    for sigma in all_strategies(game, PLAYER0):
        wins = set(game.node_ids)
        for tau in taus:
            wins = {v for v in wins if walk_winner(game, sigma, tau, v) == 0}
            if not wins:
                break
        w0 |= wins
    w1 = set(game.node_ids) - w0
    return frozenset(w0), frozenset(w1)
