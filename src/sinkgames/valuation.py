"""Strategy valuations, improving-move sets, and weak candidate sets.

The valuation of a strategy assigns every node the play value it guarantees
against a best-responding opponent, together with one optimal response. It
is computed as the unique finite fixpoint of a local relaxation over the
strategy subgraph: each node's value is its own priority added to the
opponent-optimal successor value.

The fixpoint runs on integer-encoded play values (see
:class:`sinkgames.playvalues.ValueCodec`) so that relaxation is plain
integer arithmetic. Values stay encoded inside the library: the candidate
sets I and J are computed on the code arrays, and a :class:`Valuation`
decodes its play values only when they are read. Any relaxation schedule
reaches the same fixpoint, which is what makes runs reproducible.

The improvement loops revalue a strategy incrementally: after a switch only
the backward cone of the switched nodes (the nodes with a path to one of
them in the new strategy subgraph) can change value. :func:`solve_values`
resets that cone to the sentinel and relaxes it alone, while every other
node keeps its exact previous code, since none of its paths crosses a
switch. A cold start is the same computation with every node in the cone.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .game import PLAYER0, ParityGame, Strategy, check_strategy
from .playvalues import PlayValue, ValueCodec


class NotAdmissibleError(Exception):
    """The valued strategy admits an opponent-favorable cycle (or cuts the
    sink off entirely), so no finite valuation exists."""


class GameIndex:
    """Dense per-game arrays used by the fixpoint engine and solver loops.

    Indexes are positions in the ascending node-id order, so index order and
    id order agree for tie-breaking purposes. The index holds no reference
    to its game, so a cached index never keeps a game alive.
    """

    __slots__ = (
        "ids",
        "index",
        "owner0",
        "adj",
        "adj_unique",
        "pred",
        "weight",
        "codec",
        "sink",
        "order",
        "sink_dist",
        "nodes0",
        "nodes1",
        "finite_bound",
        "pos_init",
        "neg_init",
    )

    def __init__(self, game: ParityGame):
        if game.sink is None:
            raise ValueError("game has no designated sink node")
        ids = game.node_ids
        n = len(ids)
        self.ids = ids
        self.index = {v: i for i, v in enumerate(ids)}
        self.owner0 = [game.owner(v) == PLAYER0 for v in ids]
        self.adj = [tuple(self.index[w] for w in game.successors(v)) for v in ids]
        self.adj_unique = [tuple(dict.fromkeys(succs)) for succs in self.adj]
        pred: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            for w in self.adj_unique[v]:
                pred[w].append(v)
        self.pred = [tuple(vs) for vs in pred]
        # A final value is a sum over a simple path, so every count is at
        # most n < base/2 = n + 4: integer order is play-value order, and a
        # cycle's sign is its top priority's. A value on the sentinel side
        # has taken at most n * budget <= n^2 weights of at most
        # base^(P-1) each (P priorities), and 4*base^2 - n^2 > 2*base keeps
        # it beyond finite_bound.
        self.codec = ValueCodec(game.priorities(), max_count=n + 2)
        self.weight = [self.codec.weight(game.priority(v)) for v in ids]
        self.sink = self.index[game.sink]
        self.nodes0 = tuple(i for i in range(n) if self.owner0[i])
        self.nodes1 = tuple(i for i in range(n) if not self.owner0[i])
        self.finite_bound = 2 * self.codec.base ** len(self.codec.priorities)
        self.pos_init = 4 * self.codec.base ** (len(self.codec.priorities) + 1)
        self.neg_init = -self.pos_init
        self.order, self.sink_dist = self._sink_bfs()

    def _sink_bfs(self) -> tuple[tuple[int, ...], list[int]]:
        """Sink-BFS over reversed edges. Returns the evaluation order, in
        which nodes near the sink relax first (few sweeps on sink-directed
        graphs), and each node's edge distance to the sink, ``len(ids)``
        where the sink is unreachable."""
        n = len(self.ids)
        dist = [n] * n
        dist[self.sink] = 0
        queue = deque([self.sink])
        order: list[int] = []
        while queue:
            w = queue.popleft()
            for v in self.pred[w]:
                if dist[v] == n:
                    dist[v] = dist[w] + 1
                    order.append(v)
                    queue.append(v)
        order.extend(v for v in range(n) if dist[v] == n)
        return tuple(order), dist

    def subgraph_arrays(
        self, strat: list[int | None], player: int
    ) -> tuple[list[int], list[tuple[int, ...]]]:
        """Per-node (first, rest) successor split for the strategy subgraph:
        nodes of ``player`` keep only their chosen edge."""
        first: list[int] = [0] * len(self.ids)
        rest: list[tuple[int, ...]] = [()] * len(self.ids)
        for v in range(len(self.ids)):
            if self.owner0[v] == (player == PLAYER0):
                choice = strat[v]
                assert choice is not None
                first[v] = choice
            else:
                succs = self.adj[v]
                first[v] = succs[0]
                rest[v] = succs[1:]
        return first, rest

    def strategy_array(self, strategy: Strategy) -> list[int | None]:
        arr: list[int | None] = [None] * len(self.ids)
        for v, w in strategy.choice.items():
            arr[self.index[v]] = self.index[w]
        return arr


@dataclass(frozen=True)
class Valuation:
    """Node values of one player's strategy plus the optimal response that
    witnesses them.

    The values are held encoded: ``codes[i]`` belongs to node ``gi.ids[i]``
    under ``gi.codec``. ``values`` decodes them all when it is first read.
    """

    player: int
    codes: tuple[int, ...]
    counter: Strategy
    gi: GameIndex = field(repr=False, compare=False)

    @cached_property
    def values(self) -> dict[int, PlayValue]:
        decode = self.gi.codec.decode
        return {v: decode(code) for v, code in zip(self.gi.ids, self.codes)}

    def count(self, v: int, priority: int) -> int:
        """How often ``priority`` occurs in node ``v``'s value, read off its
        code without decoding it."""
        return self.gi.codec.digit(self.codes[self.gi.index[v]], priority)


# identity-keyed: games are value-comparable but the index binds to one
# object; the entry dies with its game, so a later game reusing the id
# never finds it
_INDEX_CACHE: dict[int, GameIndex] = {}


def game_index(game: ParityGame) -> GameIndex:
    key = id(game)
    gi = _INDEX_CACHE.get(key)
    if gi is None:
        gi = GameIndex(game)
        _INDEX_CACHE[key] = gi
        weakref.finalize(game, _INDEX_CACHE.pop, key, None)
    return gi


def sweep_to_fixpoint(
    gi: GameIndex,
    order: Sequence[int],
    succ_first: list[int],
    succ_rest: list[tuple[int, ...]],
    values: list[int],
    minimize: bool,
    max_sweeps: int,
) -> bool:
    """Relax the nodes of ``order``, in that order, in place until a full
    sweep changes nothing.

    Returns False when ``max_sweeps`` full sweeps did not stabilize, which
    for a start from the sentinel means the strategy is not admissible.
    """
    weight = gi.weight
    if minimize:
        for _ in range(max_sweeps):
            changed = False
            for v in order:
                m = values[succ_first[v]]
                for w in succ_rest[v]:
                    x = values[w]
                    if x < m:
                        m = x
                nv = weight[v] + m
                if nv != values[v]:
                    values[v] = nv
                    changed = True
            if not changed:
                return True
    else:
        for _ in range(max_sweeps):
            changed = False
            for v in order:
                m = values[succ_first[v]]
                for w in succ_rest[v]:
                    x = values[w]
                    if x > m:
                        m = x
                nv = weight[v] + m
                if nv != values[v]:
                    values[v] = nv
                    changed = True
            if not changed:
                return True
    return False


def backward_cone(
    gi: GameIndex,
    succ_first: list[int],
    succ_rest: list[tuple[int, ...]],
    switched: Sequence[int],
) -> list[int]:
    """The nodes with a path to a node of ``switched`` in the strategy
    subgraph, the switched nodes included, in evaluation order."""
    pred = gi.pred
    in_cone = [False] * len(gi.ids)
    stack = []
    for v in switched:
        if not in_cone[v]:
            in_cone[v] = True
            stack.append(v)
    while stack:
        w = stack.pop()
        for v in pred[w]:
            if not in_cone[v] and (succ_first[v] == w or w in succ_rest[v]):
                in_cone[v] = True
                stack.append(v)
    return [v for v in gi.order if in_cone[v]]


def solve_values(
    gi: GameIndex,
    succ_first: list[int],
    succ_rest: list[tuple[int, ...]],
    minimize: bool,
    prev: list[int] | None = None,
    switched: Sequence[int] = (),
) -> list[int]:
    """Encoded valuation of a strategy subgraph; raises NotAdmissibleError.

    Without ``prev`` every node starts from the sentinel: approaching the
    fixpoint from that side stabilizes within |V| sweeps exactly when the
    strategy is admissible, so the sweep budget doubles as the
    admissibility decision. ``prev`` resumes from the fixpoint of the same
    player's admissible strategy before the nodes ``switched`` changed
    their choice: only their backward cone restarts from the sentinel.
    The cone is never warm-started from its old codes: from there values
    can creep around a cycle one lap per sweep, and the sweep budget would
    no longer decide admissibility.
    """
    budget = max(len(gi.ids), 2)
    # gi.order holds every node but the sink, whose value stays 0
    if prev is None:
        values, order = [0] * len(gi.ids), gi.order
    else:
        values, order = list(prev), backward_cone(gi, succ_first, succ_rest, switched)
    init = gi.pos_init if minimize else gi.neg_init
    for v in order:
        values[v] = init
    if not sweep_to_fixpoint(gi, order, succ_first, succ_rest, values, minimize, budget):
        raise NotAdmissibleError("valuation fixpoint did not stabilize")
    # only the relaxed nodes can be out of range; the smallest index is the
    # one an ascending scan of every node would name
    bound = gi.finite_bound
    out = [v for v in order if not -bound < values[v] < bound]
    if out:
        raise NotAdmissibleError(
            f"node {gi.ids[min(out)]} cannot reach the sink under this strategy"
        )
    return values


def counter_choices(
    gi: GameIndex, values: list[int], minimize: bool, nodes: tuple[int, ...]
) -> dict[int, int]:
    """Opponent-optimal successor per node (index-keyed), smallest node id
    on ties."""
    out: dict[int, int] = {}
    for v in nodes:
        best = None
        best_x = 0
        for w in gi.adj_unique[v]:
            x = values[w]
            if (
                best is None
                or (x < best_x if minimize else x > best_x)
                or (x == best_x and w < best)
            ):
                best = w
                best_x = x
        assert best is not None
        out[v] = best
    return out


def valuation_from_codes(gi: GameIndex, values: list[int], player: int) -> Valuation:
    """Wrap an encoded value array into a Valuation with its
    tie-break-deterministic counterstrategy."""
    minimize = player == PLAYER0
    opponent_nodes = gi.nodes1 if minimize else gi.nodes0
    counter_idx = counter_choices(gi, values, minimize, opponent_nodes)
    counter = Strategy(1 - player, {gi.ids[v]: gi.ids[w] for v, w in counter_idx.items()})
    return Valuation(player, tuple(values), counter, gi)


def strategy_codes(game: ParityGame, strategy: Strategy) -> tuple[GameIndex, list[int]]:
    """The game's index and the encoded valuation of ``strategy``, from a
    cold start; raises NotAdmissibleError."""
    check_strategy(game, strategy)
    gi = game_index(game)
    succ_first, succ_rest = gi.subgraph_arrays(gi.strategy_array(strategy), strategy.player)
    return gi, solve_values(gi, succ_first, succ_rest, strategy.player == PLAYER0)


def valuate(game: ParityGame, strategy: Strategy) -> Valuation:
    """Value every node of the strategy subgraph against a best-responding
    opponent; the returned counterstrategy attains the optimum everywhere.

    Raises NotAdmissibleError when the opponent can force a cycle of their
    own parity (or trap the pebble away from the sink).
    """
    gi, values = strategy_codes(game, strategy)
    return valuation_from_codes(gi, values, strategy.player)


def is_admissible(game: ParityGame, strategy: Strategy) -> bool:
    """True iff every cycle avoiding the sink in the strategy subgraph has
    its top priority of the strategy owner's winning parity.

    Decided by running the valuation fixpoint and reporting whether it
    stabilizes at finite values.
    """
    try:
        strategy_codes(game, strategy)
    except NotAdmissibleError:
        return False
    return True


def improving_edges(
    gi: GameIndex, strat: list[int | None], codes: Sequence[int], player: int
) -> list[tuple[int, int]]:
    """The strict-improvement set I as index edges: moves of ``player``
    whose target beats the current choice under the player's own codes."""
    adj = gi.adj_unique
    out = []
    if player == PLAYER0:
        for v in gi.nodes0:
            current = codes[strat[v]]
            for w in adj[v]:
                if codes[w] > current:
                    out.append((v, w))
    else:
        for v in gi.nodes1:
            current = codes[strat[v]]
            for w in adj[v]:
                if codes[w] < current:
                    out.append((v, w))
    return out


def weak_edges(
    edges: list[tuple[int, int]],
    strat: list[int | None],
    opponent_codes: Sequence[int],
    player: int,
) -> list[tuple[int, int]]:
    """The index edges of ``edges`` in the weak set J: moves of ``player``
    whose target is at least as good for the player as the current choice
    under the opponent's codes."""
    if player == PLAYER0:
        return [(v, w) for v, w in edges if opponent_codes[w] >= opponent_codes[strat[v]]]
    return [(v, w) for v, w in edges if opponent_codes[w] <= opponent_codes[strat[v]]]


def _id_edges(gi: GameIndex, edges: list[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    ids = gi.ids
    return frozenset((ids[v], ids[w]) for v, w in edges)


def improving_moves(
    game: ParityGame, strategy: Strategy, xi: Valuation
) -> frozenset[tuple[int, int]]:
    """Edges whose target strictly improves on the current choice's target
    under the player's own valuation."""
    gi = game_index(game)
    strat = gi.strategy_array(strategy)
    return _id_edges(gi, improving_edges(gi, strat, xi.codes, strategy.player))


def j_set(
    game: ParityGame, strategy: Strategy, xi_opponent: Valuation
) -> frozenset[tuple[int, int]]:
    """Edges whose target is weakly better for the player than the current
    choice under the *opponent's* valuation; always contains the current
    choices themselves."""
    gi = game_index(game)
    strat = gi.strategy_array(strategy)
    nodes = gi.nodes0 if strategy.player == PLAYER0 else gi.nodes1
    edges = [(v, w) for v in nodes for w in gi.adj_unique[v]]
    return _id_edges(gi, weak_edges(edges, strat, xi_opponent.codes, strategy.player))
