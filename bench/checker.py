"""Output checks that share no code with the sinkgames solvers.

A game here is a plain dict ``{node: (owner, priority, successors)}``. The
winning-strategy checker accepts a claimed winning region and strategy of
one player only when the player wins from every node of it, so a wrong
partition or a wrong strategy is always rejected: winning regions are
unique, and two accepted regions that partition the nodes are the true
ones.
"""

from __future__ import annotations

Game = dict[int, tuple[int, int, tuple[int, ...]]]


def _sccs(nodes: set[int], succ: dict[int, tuple[int, ...]]) -> list[list[int]]:
    """Strongly connected components of the subgraph induced on ``nodes``
    (iterative Tarjan)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    out: list[list[int]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in nodes:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
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
                    out.append(component)
    return out


def _bad_cycle(
    nodes: set[int], succ: dict[int, tuple[int, ...]], priority: dict[int, int], player: int
) -> list[int] | None:
    """A cycle within ``nodes`` whose top priority has the opponent's
    parity, as a component that holds it, or None.

    In a cyclic component every node lies on a cycle, so a top priority of
    the wrong parity is a bad cycle. Otherwise every cycle through a
    top-priority node is good, and the cycles that avoid them lie in the
    rest of the component.
    """
    pending = [nodes]
    while pending:
        part = pending.pop()
        for component in _sccs(part, succ):
            cyclic = len(component) > 1 or component[0] in succ[component[0]]
            if not cyclic:
                continue
            top = max(priority[v] for v in component)
            if top % 2 != player:
                return sorted(component)
            rest = {v for v in component if priority[v] != top}
            if rest:
                pending.append(rest)
    return None


def check_region(game: Game, player: int, region: set[int], strategy: dict[int, int]) -> str | None:
    """None when ``strategy`` wins every play from ``region`` for ``player``,
    else the first reason it does not."""
    succ: dict[int, tuple[int, ...]] = {}
    for v in region:
        owner, _, moves = game[v]
        if owner == player:
            w = strategy.get(v)
            if w not in moves:
                return f"player {player} strategy has no legal move at node {v}"
            if w not in region:
                return f"player {player} strategy leaves its region at edge ({v}, {w})"
            succ[v] = (w,)
        else:
            for w in moves:
                if w not in region:
                    return f"opponent escapes player {player}'s region at edge ({v}, {w})"
            succ[v] = moves
    priority = {v: game[v][1] for v in region}
    cycle = _bad_cycle(region, succ, priority, player)
    if cycle is not None:
        return f"player {player} region has a losing cycle through nodes {cycle[:8]}"
    return None


def check_winners(
    game: Game, w0: set[int], w1: set[int], strategy0: dict[int, int], strategy1: dict[int, int]
) -> str | None:
    """None when W0 and W1 partition the nodes and each player's strategy
    wins from their region, else the first reason they do not."""
    if w0 & w1:
        return f"nodes {sorted(w0 & w1)[:8]} are in both W0 and W1"
    if w0 | w1 != set(game):
        return f"nodes {sorted(set(game) - w0 - w1)[:8]} are in neither W0 nor W1"
    return check_region(game, 0, w0, strategy0) or check_region(game, 1, w1, strategy1)


def read_pgsolver(text: str) -> Game:
    """Read PGSolver text in the canonical one-node-per-statement form;
    raises ValueError on anything else."""
    game: Game = {}
    statements = text.split(";")
    if statements[-1].strip():
        raise ValueError("text does not end with ';'")
    for stmt in statements[:-1]:
        fields = stmt.split()
        if fields and fields[0] == "parity":
            continue
        if len(fields) not in (4, 5):
            raise ValueError(f"malformed node statement {stmt.strip()!r}")
        v, priority, owner = int(fields[0]), int(fields[1]), int(fields[2])
        if v in game:
            raise ValueError(f"node {v} is declared twice")
        game[v] = (owner, priority, tuple(int(w) for w in fields[3].split(",")))
    return game


def check_sink_game(game: Game) -> str | None:
    """None when ``game`` is a valid sink game: edges end at nodes, owners
    are 0 or 1, and one node of strictly lowest priority loops on itself
    only."""
    for v, (owner, _, moves) in game.items():
        if owner not in (0, 1):
            return f"node {v} has owner {owner}"
        for w in moves:
            if w not in game:
                return f"edge ({v}, {w}) ends outside the game"
    ranked = sorted(game, key=lambda v: game[v][1])
    sink = ranked[0]
    if len(ranked) > 1 and game[ranked[1]][1] == game[sink][1]:
        return f"lowest priority {game[sink][1]} is shared, so there is no sink"
    if game[sink][2] != (sink,):
        return f"lowest-priority node {sink} is not a self-loop sink"
    return None
