"""Zielonka's recursive algorithm for the winning regions of a parity game.

Test-only reference for the differential tests of ``solve_winners`` past
the brute-force oracle's 12 nodes (Zielonka, TCS 1998; the baseline solver
of van Dijk, "Oink", TACAS 2018). It reads a game as plain dicts and
imports no solver code. Attractors are found by counting each opponent
node's successors not yet attracted. Each recursive call is a generator
that yields the subgame it needs solved, and one loop drives the stack of
them, so the depth of the recursion is not bounded by Python's.
"""

from __future__ import annotations

from collections.abc import Generator

Regions = tuple[set[int], set[int]]


def winning_regions(
    owner: dict[int, int], priority: dict[int, int], successors: dict[int, tuple[int, ...]]
) -> Regions:
    """W0 and W1 of the game: the nodes from which player 0, respectively
    player 1, wins."""
    succ = {v: set(ws) for v, ws in successors.items()}
    preds: dict[int, list[int]] = {v: [] for v in owner}
    for v, ws in succ.items():
        for w in ws:
            preds[w].append(v)
    stack = [_solve(set(owner), owner, priority, succ, preds)]
    result = None
    while stack:
        try:
            subgame = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(_solve(subgame, owner, priority, succ, preds))
            result = None
    return result


def _solve(nodes, owner, priority, succ, preds) -> Generator[set[int], Regions, Regions]:
    """The regions of the subgame ``nodes``, which every node of it can
    stay in; yields each smaller subgame and receives its regions."""
    if not nodes:
        return set(), set()
    top = max(priority[v] for v in nodes)
    p = top % 2
    a = _attractor(nodes, {v for v in nodes if priority[v] == top}, p, owner, succ, preds)
    won = yield nodes - a
    if not won[1 - p]:
        return (set(nodes), set()) if p == 0 else (set(), set(nodes))
    b = _attractor(nodes, won[1 - p], 1 - p, owner, succ, preds)
    won = yield nodes - b
    return (won[0], won[1] | b) if p == 0 else (won[0] | b, won[1])


def _attractor(nodes, target, player, owner, succ, preds) -> set[int]:
    """The nodes of the subgame ``nodes`` from which ``player`` can force
    the play into ``target``."""
    attracted = set(target)
    left: dict[int, int] = {}  # opponent node -> successors not yet attracted
    queue = list(target)
    while queue:
        w = queue.pop()
        for v in preds[w]:
            if v not in nodes or v in attracted:
                continue
            if owner[v] != player:
                if v not in left:
                    left[v] = len(succ[v] & nodes)
                left[v] -= 1
                if left[v]:
                    continue
            attracted.add(v)
            queue.append(v)
    return attracted
