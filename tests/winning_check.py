"""An independent check of winning regions and winning strategies.

It reads a game as plain dicts and shares no code with the solver or the
benchmark. A result passes when W0 and W1 partition the nodes and each
player's strategy wins on their own region: it stays inside the region, no
move of the opponent leaves it, and every cycle the two allow has a top
priority of the winner's parity. Such regions are dominions, so a passing
result is exactly the game's pair of winning regions.
"""

from __future__ import annotations


def winning_problems(
    owner: dict[int, int],
    priority: dict[int, int],
    successors: dict[int, tuple[int, ...]],
    w0: set[int],
    w1: set[int],
    strategy0: dict[int, int],
    strategy1: dict[int, int],
) -> list[str]:
    """Every way the claimed result fails; an empty list means it holds."""
    problems = []
    if w0 & w1:
        problems.append(f"W0 and W1 share node {min(w0 & w1)}")
    if w0 | w1 != set(owner):
        problems.append(f"W0 and W1 miss node {min(set(owner) - (w0 | w1))}")
    for player, region, strategy in ((0, w0, strategy0), (1, w1, strategy1)):
        moves: dict[int, tuple[int, ...]] = {}
        for v in sorted(region):
            if owner[v] == player:
                w = strategy.get(v)
                if w not in successors[v] or w not in region:
                    problems.append(f"player {player} moves from {v} to {w}, off W{player}")
                moves[v] = (w,)
            else:
                escape = [w for w in successors[v] if w not in region]
                if escape:
                    problems.append(f"player {1 - player} escapes W{player} from {v} to {escape[0]}")
                moves[v] = successors[v]
        cycle = _losing_cycle(moves, priority, region, 1 - player)
        if cycle is not None:
            problems.append(f"W{player} holds a cycle through {cycle} with top priority of parity {1 - player}")
    return problems


def _losing_cycle(
    moves: dict[int, tuple[int, ...]], priority: dict[int, int], region: set[int], parity: int
) -> int | None:
    """A node on a cycle within ``region`` whose top priority has ``parity``,
    or None. A nontrivial SCC whose top priority has that parity holds such
    a cycle; otherwise every cycle through a top node is fine, and the rest
    lie within the SCC minus its top nodes."""
    parts = [set(region)]
    while parts:
        part = parts.pop()
        for component in _sccs(moves, part):
            v = component[0]
            if len(component) == 1 and v not in moves[v]:
                continue
            top = max(priority[u] for u in component)
            if top % 2 == parity:
                return min(u for u in component if priority[u] == top)
            parts.append({u for u in component if priority[u] != top})
    return None


def _sccs(moves: dict[int, tuple[int, ...]], part: set[int]) -> list[list[int]]:
    """Strongly connected components of the graph ``moves`` restricted to
    ``part`` (iterative Tarjan)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components = []
    for root in sorted(part):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(moves[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in part:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(moves[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
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
                    components.append(component)
    return components
