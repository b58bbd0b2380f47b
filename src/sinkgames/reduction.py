"""Reduction of arbitrary parity games to sink games and winner extraction.

Any parity game can be solved by (1) subdividing every same-owner edge so
no cycle stays within one player's nodes, (2) adding a sink with an escape
edge from every player 0 node and a high even-priority node ``w`` with an
escape from every player 1 node, (3) finding the optimal strategy pair of
the resulting sink game: player 0's by one run of strategy improvement,
player 1's as the best response to it, and (4) reading each original
node's winner off whether the optimal play from it passes ``w``.

All priorities are then shifted upward by the least even amount that keeps
them nonnegative; an even shift changes no cycle parities and no value
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import PLAYER0, PLAYER1, Columns, ParityGame, Strategy
from .rules import switch_all_rule
from .solvers import SolverInvariantError, run_si, verify_optimal


@dataclass(frozen=True)
class ReductionMap:
    """Correspondence between an original game and its sink-game form.

    Original node ids are preserved; ``breakers`` maps each inserted
    cycle-breaker node to the (source, target) edge it subdivides. ``pw``
    is the priority of ``w`` in the reduced game (after the shift).
    """

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


def _even_shift(low: int) -> int:
    """The least even amount that lifts priority ``low`` to at least 0."""
    return -low + low % 2 if low < 0 else 0


def _subdivide(cols: Columns) -> dict[int, tuple[int, int]]:
    """Rewire every same-owner edge u -> w of ``cols`` through a new node x
    of the other owner whose priority lies one below every other, appending
    the new nodes. Returns the breakers, x -> (u, w), in id order.

    No cycle then stays within one player's nodes, and the winner of every
    original node is unchanged: a breaker has a single outgoing edge and is
    never the top priority of a cycle."""
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
    """Append to ``cols`` the sink ``top`` one priority below every node and
    ``w`` at the least even priority above every node, give each player 0
    node an escape to ``top`` and each player 1 node an escape to ``w``, and
    shift every priority by the least even amount that lifts the sink's to 0
    or more. Returns ``top``, ``w`` and the shifted priority of ``w``."""
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
    shift = _even_shift(low - 1)
    priorities[:] = [priority + shift for priority in priorities]
    labels += ("top", "w")
    rows += ((top,), (top,))
    return top, w, pw + shift


def reduce_game(game: ParityGame) -> tuple[ParityGame, ReductionMap]:
    """The sink game of ``game`` and the map back to it: subdivide every
    same-owner edge, attach the sink and ``w``, and shift every priority by
    the least even amount that lifts the sink's to 0 or more.

    Subdivision leaves no edge between two nodes of one owner, so no cycle
    stays within one player's nodes; the escapes added after it lead only
    to the sink and ``w``. Only copies of the columns of ``game`` are kept,
    so a game that the caller does not keep is freed before the sink game
    is built.
    """
    cols = game.columns()
    del game
    originals = len(cols[0])
    if not originals:
        raise ValueError("a game without nodes has no sink game")
    breakers = _subdivide(cols)
    top, w, pw = _attach_sink(cols)
    reduced = ParityGame(*cols, sink=top)
    del cols
    # the original ids lead: every added node's id is higher
    rmap = ReductionMap(frozenset(reduced.node_ids[:originals]), breakers, w=w, sink=top, pw=pw)
    return reduced, rmap


def trivial_strategies(reduced: ParityGame, rmap: ReductionMap) -> tuple[Strategy, Strategy]:
    """The canonical admissible pair of a reduced game: player 0 exits to
    the sink everywhere, player 1 exits to ``w``."""
    sigma = {v: rmap.sink for v in reduced.nodes_of(PLAYER0)}
    sigma[rmap.sink] = rmap.sink
    tau = {v: rmap.w for v in reduced.nodes_of(PLAYER1)}
    tau[rmap.w] = rmap.sink
    return Strategy(PLAYER0, sigma), Strategy(PLAYER1, tau)


def extract_winners(
    reduced: ParityGame, rmap: ReductionMap, sigma: Strategy, tau: Strategy
) -> WinnerResult:
    """Winning sets and strategies of the original game, read off the
    optimal pair ``sigma``, ``tau`` of the reduced game, which is verified
    first.

    An original node belongs to player 0's winning set exactly when the
    optimal play from it passes ``w`` once, which its code shows by one
    comparison. Strategy choices that exit to the sink or ``w`` have no
    original counterpart and are omitted; on the winning regions the
    optimal choices never exit.
    """
    certificate = verify_optimal(reduced, sigma, tau)
    if not certificate.ok:
        raise SolverInvariantError(f"strategies are not optimal: {certificate.describe()}")
    # pw is the top priority and only w has it, so a simple path passes it
    # at most once, and every lower digit together weighs less than half
    # its weight: the value takes w exactly when its code is above that half
    xi = certificate.xi_sigma
    codes, index = xi.codes, xi.gi.index
    half = xi.gi.codec.weight(rmap.pw) // 2
    w0 = frozenset(v for v in rmap.original_ids if codes[index[v]] > half)
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

    return WinnerResult(w0, frozenset(w1), compose(sigma.choice), compose(tau.choice))


def _optimal_pair(reduced: ParityGame, rmap: ReductionMap) -> tuple[Strategy, Strategy]:
    # only the two strategies outlive this call: the run's result holds code
    # arrays that grow with the game and its priority count
    sigma0, _ = trivial_strategies(reduced, rmap)
    result = run_si(reduced, sigma0, switch_all_rule())
    return result.sigma, result.xi_sigma.counter


def solve_winners(game: ParityGame) -> WinnerResult:
    """End-to-end winner computation for an arbitrary parity game: reduce,
    improve player 0's strategy by plain strategy improvement with the
    switch-all rule, take player 1's best response to the result, verify
    the pair, and extract.

    Why the response is optimal: the final strategy sigma has no improving
    moves, so its codes c satisfy c[v] = w[v] + max c over the successors
    at player 0's nodes and c[v] = w[v] + min c at player 1's nodes. The
    response tau takes that least successor at each player 1 node, so -c is
    a finite fixpoint of tau's own equations (player 1's codes are negated,
    and player 0 then takes the least of them). Around any cycle of tau's
    subgraph those equations give a weight of at most 0 for player 0, and
    the codec gives no cycle weight 0, so every such cycle is won by
    player 1, and player 0's escapes keep the sink in reach. So tau is
    admissible, and as an admissible strategy's equations have one finite
    solution, its valuation is -c. Then tau has no improving moves and the
    two valuations agree node for node: the pair is optimal, which
    ``extract_winners`` still certifies, from the pair's own plays.
    """
    reduced, rmap = reduce_game(game)
    sigma, tau = _optimal_pair(reduced, rmap)
    return extract_winners(reduced, rmap, sigma, tau)
