"""Reduction of arbitrary parity games to sink games and winner extraction.

Any parity game can be solved by (1) subdividing every same-owner edge so
no cycle stays within one player's nodes, (2) adding a sink with an escape
edge from every player 0 node and a high even-priority node ``w`` with an
escape from every player 1 node, (3) finding the optimal strategy pair of
the resulting sink game, and (4) reading each original node's winner off
whether the optimal play from it passes ``w``.

All priorities may be shifted upward by an even amount to stay nonnegative;
an even shift changes no cycle parities and no value comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import PLAYER0, PLAYER1, NodeRecord, ParityGame, Strategy
from .rules import ImprovementRule, switch_all_rule
from .solvers import IterationTrace, SolveResult, SolverInvariantError, run_si, verify_optimal


@dataclass(frozen=True)
class ReductionMap:
    """Correspondence between an original game and its sink-game form.

    Original node ids are preserved; ``breakers`` maps each inserted
    cycle-breaker node to the (source, target) edge it subdivides. ``pw``
    is the priority of ``w`` in the reduced game (after any shift).
    """

    original: ParityGame
    original_ids: frozenset[int]
    breakers: dict[int, tuple[int, int]]
    w: int
    sink: int
    pw: int


@dataclass(frozen=True)
class WinnerResult:
    """Winning starting sets of the original game plus winning strategies
    (partial maps, meaningful on the respective winning regions)."""

    w0: frozenset[int]
    w1: frozenset[int]
    strategy0: dict[int, int]
    strategy1: dict[int, int]


# A game as parallel columns in ascending id order: ids, owners, priorities,
# labels and successor tuples. Priorities stay as given; the cores report
# the even shifts, and _build applies their sum once.
Columns = tuple[list[int], list[int], list[int], list[str | None], list[tuple[int, ...]]]


def _columns(game: ParityGame) -> Columns:
    nodes = game.nodes
    return (
        [rec.id for rec in nodes],
        [rec.owner for rec in nodes],
        [rec.priority for rec in nodes],
        [rec.label for rec in nodes],
        [game.successors(rec.id) for rec in nodes],
    )


def _build(cols: Columns, shift: int, sink: int | None = None) -> ParityGame:
    ids, owners, priorities, labels, rows = cols
    nodes = [
        NodeRecord(v, owner, priority + shift, label)
        for v, owner, priority, label in zip(ids, owners, priorities, labels)
    ]
    return ParityGame(nodes, dict(zip(ids, rows)), sink=sink)


def _even_shift(low: int) -> int:
    """The least even amount that lifts priority ``low`` to at least 0."""
    return -low + low % 2 if low < 0 else 0


def _subdivide(cols: Columns) -> dict[int, tuple[int, int]]:
    """Core of :func:`break_same_owner_cycles`: rewire every same-owner edge
    u -> w through a new node x of the other owner whose priority lies one
    below every other, appending the new nodes to ``cols``. Returns the
    breakers, x -> (u, w), in id order."""
    ids, owners, priorities, labels, rows = cols
    owner_of = dict(zip(ids, owners))
    low = min(priorities) - 1
    next_id = ids[-1] + 1
    breakers: dict[int, tuple[int, int]] = {}
    for i, (u, owner) in enumerate(zip(ids, owners)):
        rewired = []
        for w in rows[i]:
            if owner_of.get(w) == owner:
                breakers[next_id] = (u, w)
                rewired.append(next_id)
                next_id += 1
            else:
                rewired.append(w)
        rows[i] = tuple(rewired)
    ids += breakers
    owners += [1 - owner_of[u] for u, _ in breakers.values()]
    priorities += [low] * len(breakers)
    labels += [None] * len(breakers)
    rows += [(w,) for _, w in breakers.values()]
    return breakers


def _attach_sink(cols: Columns) -> tuple[int, int, int]:
    """Core of :func:`to_sink_game`: append the sink ``top`` one priority
    below every node and ``w`` at the least even priority above every node,
    and give each player 0 node an escape to ``top`` and each player 1 node
    an escape to ``w``. Returns ``top``, ``w`` and the priority of ``w``."""
    ids, owners, priorities, labels, rows = cols
    top = ids[-1] + 1
    w = top + 1
    low, high = min(priorities), max(priorities)
    pw = high + 1 if (high + 1) % 2 == 0 else high + 2
    escape = (top, w)  # indexed by owner: PLAYER0, PLAYER1
    rows[:] = [row + (escape[owner],) for owner, row in zip(owners, rows)]
    ids += (top, w)
    owners += (PLAYER0, PLAYER1)
    priorities += (low - 1, pw)
    labels += ("top", "w")
    rows += ((top,), (top,))
    return top, w, pw


def break_same_owner_cycles(game: ParityGame) -> tuple[ParityGame, dict[int, tuple[int, int]]]:
    """Subdivide every same-owner edge with an opposite-owner node whose
    priority lies strictly below every original priority.

    The result has no cycle within either player's node set and the winner
    of every original node is unchanged: the inserted nodes have a single
    outgoing edge and are never the top priority of a cycle. Priorities are
    shifted up by an even amount to stay nonnegative.
    """
    cols = _columns(game)
    breakers = _subdivide(cols)
    if not breakers:
        return game, {}
    return _build(cols, _even_shift(min(cols[2]))), breakers


def _same_owner_cycle(game: ParityGame) -> list[int] | None:
    """A cycle whose nodes all share one owner, or None."""
    for player in (PLAYER0, PLAYER1):
        owned = set(game.nodes_of(player))
        color = {v: 0 for v in owned}  # 0 new, 1 on stack, 2 done
        for root in owned:
            if color[root] != 0:
                continue
            stack = [(root, iter(game.successors(root)))]
            color[root] = 1
            trail = [root]
            while stack:
                v, it = stack[-1]
                advanced = False
                for w in it:
                    if w not in owned:
                        continue
                    if color[w] == 1:
                        return trail[trail.index(w):]
                    if color[w] == 0:
                        color[w] = 1
                        stack.append((w, iter(game.successors(w))))
                        trail.append(w)
                        advanced = True
                        break
                if not advanced:
                    color[v] = 2
                    stack.pop()
                    trail.pop()
    return None


def to_sink_game(
    game: ParityGame,
    breakers: dict[int, tuple[int, int]] | None = None,
    original: ParityGame | None = None,
) -> tuple[ParityGame, ReductionMap]:
    """Attach the sink and the high even-priority escape node ``w``.

    Requires a game with no same-owner cycles (run
    :func:`break_same_owner_cycles` first); ``breakers`` and ``original``
    thread that step's correspondence through to the returned map.
    """
    cycle = _same_owner_cycle(game)
    if cycle is not None:
        raise ValueError(f"game has a same-owner cycle through nodes {cycle}")
    cols = _columns(game)
    top, w, pw = _attach_sink(cols)
    shift = _even_shift(min(cols[2]))
    base = original if original is not None else game
    rmap = ReductionMap(
        base, frozenset(base.node_ids), dict(breakers or {}), w=w, sink=top, pw=pw + shift
    )
    return _build(cols, shift, sink=top), rmap


def reduce_game(game: ParityGame) -> tuple[ParityGame, ReductionMap]:
    """Full pipeline: break same-owner cycles, then build the sink game.

    Equal to ``to_sink_game(*break_same_owner_cycles(game), original=game)``
    without building the intermediate game. In place of the same-owner
    cycle search it checks that no edge of the broken game joins two nodes
    of one owner, which subdivision guarantees.
    """
    cols = _columns(game)
    breakers = _subdivide(cols)
    ids, owners, priorities, _, rows = cols
    shift = _even_shift(min(priorities)) if breakers else 0
    owner_of = dict(zip(ids, owners))
    for v, owner, row in zip(ids, owners, rows):
        for t in row:
            if owner_of.get(t) == owner:
                raise ValueError(f"edge ({v}, {t}) joins two nodes of player {owner}")
    top, w, pw = _attach_sink(cols)
    shift += _even_shift(min(priorities) + shift)
    rmap = ReductionMap(game, frozenset(game.node_ids), breakers, w=w, sink=top, pw=pw + shift)
    return _build(cols, shift, sink=top), rmap


def trivial_strategies(reduced: ParityGame, rmap: ReductionMap) -> tuple[Strategy, Strategy]:
    """The canonical admissible pair of a reduced game: player 0 exits to
    the sink everywhere, player 1 exits to ``w``."""
    sigma = {v: rmap.sink for v in reduced.nodes_of(PLAYER0)}
    sigma[rmap.sink] = rmap.sink
    tau = {v: rmap.w for v in reduced.nodes_of(PLAYER1)}
    tau[rmap.w] = rmap.sink
    return Strategy(PLAYER0, sigma), Strategy(PLAYER1, tau)


def extract_winners(
    reduced: ParityGame, rmap: ReductionMap, optimal: SolveResult
) -> WinnerResult:
    """Winning sets and strategies of the original game, read off a
    verified-optimal solve of the reduced game.

    An original node belongs to player 0's winning set exactly when the
    optimal play from it passes ``w`` once. Strategy choices that exit to
    the sink or ``w`` have no original counterpart and are omitted; on the
    winning regions the optimal choices never exit.
    """
    if optimal.sigma is None or optimal.tau is None:
        raise ValueError("winner extraction needs both final strategies")
    certificate = verify_optimal(reduced, optimal.sigma, optimal.tau)
    if not certificate.ok:
        raise SolverInvariantError(f"strategies are not optimal: {certificate.describe()}")
    xi = certificate.xi_sigma
    w0 = frozenset(v for v in rmap.original_ids if xi.count(v, rmap.pw) == 1)
    w1 = rmap.original_ids - w0

    def compose(choice: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for v, target in choice.items():
            if v not in rmap.original_ids:
                continue
            if target in rmap.breakers:
                target = rmap.breakers[target][1]
            if target in rmap.original_ids:
                out[v] = target
        return out

    return WinnerResult(w0, frozenset(w1), compose(optimal.sigma.choice), compose(optimal.tau.choice))


def solve_winners(game: ParityGame, rule: ImprovementRule | None = None) -> WinnerResult:
    """End-to-end winner computation for an arbitrary parity game: reduce,
    solve each player's side by plain strategy improvement, verify the pair,
    and extract."""
    rule = rule if rule is not None else switch_all_rule()
    reduced, rmap = reduce_game(game)
    sigma0, tau0 = trivial_strategies(reduced, rmap)
    result_sigma = run_si(reduced, sigma0, rule)
    result_tau = run_si(reduced, tau0, rule)
    combined = SolveResult(
        sigma=result_sigma.sigma,
        tau=result_tau.tau,
        xi_sigma=result_sigma.xi_sigma,
        xi_tau=result_tau.xi_tau,
        iterations=result_sigma.iterations + result_tau.iterations,
        trace=IterationTrace(()),
    )
    return extract_winners(reduced, rmap, combined)
