"""Strategy valuations, improving-move sets, and weak candidate sets.

The valuation of a strategy assigns every node the play value it guarantees
against a best-responding opponent, together with one optimal response. It
is computed as the unique finite fixpoint of a local relaxation over the
strategy subgraph: each node's value is its own priority added to the
opponent-optimal successor value.

The fixpoint runs on integer-encoded play values (see
:class:`sinkgames.playvalues.ValueCodec`) so that relaxation is plain
integer arithmetic. Each valuation's codes are the valued player's gain:
player 1's weights are player 0's negated, so either player prefers higher
codes and the opponent always takes the least. Values stay encoded inside
the library: the candidate sets I and J are computed on the code arrays,
and a :class:`Valuation` decodes its play values only when they are read,
undoing player 1's sign. Any relaxation schedule reaches the same fixpoint,
which is what makes runs reproducible.

The improvement loops revalue a strategy incrementally: after a switch only
the backward cone of the switched nodes (the nodes with a path to one of
them in the new strategy subgraph) can change value. :func:`solve_values`
relaxes that cone alone, while every other node keeps its exact previous
code, since none of its paths crosses a switch. A cold start is the same
computation with every node but the sink in the cone.

The cone is found by one DFS over reversed subgraph edges and swept in
its reverse postorder, which puts every node after the nodes it leads to
except along a cycle (Tarjan, SIAM J. Comput. 1972), until a sweep changes
nothing; the sweep budget decides admissibility. After the first sweep a
node is relaxed again only when one of its successors has changed
(Ramalingam & Reps, J. Algorithms 1996), so an acyclic cone is relaxed
once.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .game import PLAYER0, PLAYER1, ParityGame, Strategy, check_strategy
from .playvalues import PlayValue, ValueCodec


class NotAdmissibleError(Exception):
    """The valued strategy admits an opponent-favorable cycle (or cuts the
    sink off entirely), so no finite valuation exists."""


class GameIndex:
    """Dense per-game arrays used by the fixpoint engine and solver loops.

    Indexes are positions in the ascending node-id order, so index order and
    id order agree for tie-breaking purposes. A strategy of player p is held
    as the array of :meth:`strategy_array`, each node's first successor in
    p's strategy subgraph, and ``rest[p]`` holds the other successors. The
    index is a cache derived from an immutable game, which
    :func:`game_index` keeps on the game itself. It holds no reference to
    its game, so the two are freed together.
    """

    __slots__ = (
        "ids",
        "index",
        "owner",
        "succ",
        "rest",
        "pred",
        "weight",
        "codec",
        "sink",
        "nodes",
        "finite_bound",
    )

    def __init__(self, game: ParityGame):
        if game.sink is None:
            raise ValueError("game has no designated sink node")
        ids = game.node_ids
        _, owners, priorities, _, successors = game.columns()
        if not all(successors):
            v = next(v for v, row in zip(ids, successors) if not row)
            raise ValueError(f"node {v} has no successor")
        n = len(ids)
        index = {v: i for i, v in enumerate(ids)}
        # A final value is a sum over a simple path, so every count is at
        # most n < base/2 = n + 4: integer order is play-value order, and a
        # cycle's sign is its top priority's. Relaxed nodes start from the
        # sentinel code base^(P+1) (P priorities), the valued player's best
        # value in that player's codes. A value on the sentinel side has
        # taken at most n * max(n, 2) weights of at most base^(P-1) each,
        # and base = 2n + 8 gives base^2 - n * max(n, 2) > 2 * base, which
        # keeps it beyond finite_bound.
        self.codec = codec = ValueCodec(priorities, max_count=n + 2)
        # pred[p][w]: the nodes of player p with an edge to w
        pred = ([[] for _ in range(n)], [[] for _ in range(n)])
        to_index = index.__getitem__
        # duplicate edges change no minimum, so each successor is kept
        # once, in declaration order
        try:
            succ = [tuple(dict.fromkeys(map(to_index, row))) for row in successors]
        except KeyError:
            v, w = next((v, w) for v, row in zip(ids, successors) for w in row if w not in index)
            raise ValueError(f"node {v} lists successor {w} which is not a node") from None
        for v, (who, row) in enumerate(zip(owners, succ)):
            into = pred[who]
            for w in row:
                into[w].append(v)
        self.ids = ids
        self.index = index
        self.owner = owners
        self.succ = succ
        # rest[p]: each node's successors in p's subgraph after the first
        self.rest = tuple(
            [() if who == p else row[1:] for who, row in zip(owners, succ)]
            for p in (PLAYER0, PLAYER1)
        )
        self.pred = pred
        # weight[p]: each node's weight in player p's codes, the gain of p;
        # nodes of one priority share one int in both arrays
        own = {q: codec.weight(q) for q in codec.priorities}
        negated = {q: -w for q, w in own.items()}
        self.weight = (
            list(map(own.__getitem__, priorities)),
            list(map(negated.__getitem__, priorities)),
        )
        self.sink = index[game.sink]
        # nodes[p]: the nodes of player p
        self.nodes = tuple(
            tuple([v for v, who in enumerate(owners) if who == p]) for p in (PLAYER0, PLAYER1)
        )
        self.finite_bound = 2 * codec.base ** len(codec.priorities)

    def strategy_array(self, *strategies: Strategy) -> list[int]:
        """Each node's first successor in the strategies' subgraph: the
        choice at each strategy owner's nodes and ``succ[v][0]`` at the
        others. Of a strategy pair, it is each node's next step in play."""
        arr = [row[0] for row in self.succ]
        index = self.index
        for strategy in strategies:
            for v, w in strategy.choice.items():
                arr[index[v]] = index[w]
        return arr


@dataclass(frozen=True)
class Valuation:
    """Node values of one player's strategy plus the optimal response that
    witnesses them.

    The values are held encoded: ``codes[i]`` belongs to node ``gi.ids[i]``
    under ``gi.codec``, negated for player 1, so that higher codes are
    better for ``player`` whichever player it is. ``values`` decodes them
    all, and ``counter`` finds the response, when each is first read.
    """

    player: int
    codes: tuple[int, ...]
    gi: GameIndex = field(repr=False, compare=False)

    @cached_property
    def values(self) -> dict[int, PlayValue]:
        decode = self.gi.codec.decode
        sign = 1 if self.player == PLAYER0 else -1
        return {v: decode(sign * code) for v, code in zip(self.gi.ids, self.codes)}

    @cached_property
    def counter(self) -> Strategy:
        """The opponent's tie-break-deterministic best response: at each
        opponent node the successor of least code, smallest id on ties.
        It is read off the fixpoint equations by :func:`counter_choices`,
        so ``codes`` must be a fixpoint of :func:`solve_values`, as every
        valuation the library builds is."""
        gi = self.gi
        edges = [(v, w) for v in gi.nodes[1 - self.player] for w in gi.succ[v]]
        choice = counter_choices(gi, self.codes, self.player, edges)
        ids = gi.ids
        return Strategy(1 - self.player, {ids[v]: ids[w] for v, w in choice})


def game_index(game: ParityGame) -> GameIndex:
    """The game's index, built on first use and kept on the game; two
    threads that ask at once may each build an equal one."""
    gi = game._index
    if gi is None:
        gi = game._index = GameIndex(game)
    return gi


def sweep_to_fixpoint(
    weight: Sequence[int],
    order: Sequence[int],
    succ_first: list[int],
    succ_rest: list[tuple[int, ...]],
    values: list[int],
    pred: tuple[list[list[int]], list[list[int]]],
    seeds: Iterable[int],
    max_sweeps: int,
) -> bool:
    """Relax the nodes of ``order``, in that order, in place until a sweep
    changes nothing: each node takes its ``weight`` plus the least value
    among its successors.

    The first sweep relaxes every node. Later sweeps relax, in the same
    order, only the nodes marked stale: first the nodes of ``seeds``, which
    must hold every node that read in the first sweep a value written
    after it, and then each subgraph predecessor of a node whose value
    changes. ``pred`` holds the predecessor lists of the valued player's
    nodes and of the opponent's (of ``gi.pred``); a node of the valued
    player is a subgraph predecessor only through its ``succ_first`` edge.
    Any other node's successors are unchanged since its last relaxation,
    which would give it its own value again, so sweep k leaves exactly the
    values a full sweep k would leave.

    Returns False when ``max_sweeps`` sweeps did not stabilize, which for a
    start from the sentinel means the strategy is not admissible.
    """
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
    own_pred, opp_pred = pred
    stale = [False] * len(values)
    for u in seeds:
        stale[u] = True
    for _ in range(max_sweeps - 1):
        if not changed:
            return True
        changed = False
        for v in order:
            if stale[v]:
                stale[v] = False
                m = values[succ_first[v]]
                for w in succ_rest[v]:
                    x = values[w]
                    if x < m:
                        m = x
                nv = weight[v] + m
                if nv != values[v]:
                    values[v] = nv
                    changed = True
                    for u in opp_pred[v]:
                        stale[u] = True
                    for u in own_pred[v]:
                        if succ_first[u] == v:
                            stale[u] = True
    return not changed


def successors_first(
    gi: GameIndex,
    succ_first: list[int],
    player: int,
    roots: Sequence[int],
    values: list[int],
) -> tuple[list[int], list[int]]:
    """The nodes with a path to a node of ``roots`` in the strategy
    subgraph, the roots included and the sink left out, in the reverse
    postorder of one DFS over reversed subgraph edges; and the nodes its
    back edges lead to, which are there exactly when those nodes span a
    cycle.

    In reverse postorder every node comes after its successors, except
    along a cycle, so each SCC follows the SCCs it reaches. Each node's
    value is set to the sentinel ``gi.codec.pos_code`` when the DFS
    finishes it.
    """
    # the subgraph keeps the chosen edge of each node of the valued player
    # and every edge of the opponent's
    own_pred, opp_pred = gi.pred[player], gi.pred[1 - player]
    init = gi.codec.pos_code
    # None: unseen, False: on the DFS path, True: finished; the sink's
    # value is fixed, so the DFS never enters it
    state: list[bool | None] = [None] * len(gi.ids)
    state[gi.sink] = True
    post: list[int] = []
    back: list[int] = []
    # a pushed ~v finishes v once everything pushed after it is done
    stack = list(roots)
    while stack:
        v = stack.pop()
        if v < 0:
            v = ~v
            state[v] = True
            values[v] = init
            post.append(v)
        elif state[v] is None:
            state[v] = False
            stack.append(~v)
            for u in own_pred[v]:
                if succ_first[u] == v:
                    seen = state[u]
                    if seen is None:
                        stack.append(u)
                    elif seen is False:
                        back.append(u)
            for u in opp_pred[v]:
                seen = state[u]
                if seen is None:
                    stack.append(u)
                elif seen is False:
                    back.append(u)
    post.reverse()
    return post, back


def solve_values(
    gi: GameIndex,
    succ_first: list[int],
    player: int,
    prev: list[int] | None = None,
    switched: Sequence[int] = (),
) -> list[int]:
    """Encoded valuation of a strategy subgraph; raises NotAdmissibleError.

    ``succ_first`` is the array of :meth:`GameIndex.strategy_array` for a
    strategy of ``player``, whose subgraph's other edges are
    ``gi.rest[player]``. The codes are that player's gain, player 1's
    negated, so the opponent takes the least successor code at its nodes
    whichever player is valued. Without ``prev`` every node but the sink is
    relaxed (a cold start). ``prev`` resumes from the fixpoint of the same
    player's admissible strategy before the nodes ``switched`` changed
    their choice: only their backward cone is relaxed again, while every
    other node keeps its exact code, since none of its paths crosses a
    switch.

    The relaxed nodes, reset to the sentinel, are swept in the order of
    :func:`successors_first`, whose DFS starts at the sink's predecessors
    for a cold start and at the switched nodes for a cone, until a sweep
    changes nothing, within ``len(back) + 2`` sweeps but no more than
    ``max(|V|, 2)``. The seeds of :func:`sweep_to_fixpoint` are the nodes
    the DFS's back edges lead to: in reverse postorder those edges are the
    only ones whose source is relaxed before its target, so these nodes
    alone read a value written after them. Sweep k leaves the values of a
    full sweep k, which have taken in every walk that leaves the relaxed
    nodes along at most k - 1 back edges, and which fall from the sentinel
    but never below a fixpoint. Without a cycle that favours the opponent,
    the opponent's best walk is a simple path, which takes each back edge
    at most once and fewer than |V| edges in all, so the values settle by
    sweep ``len(back) + 1`` and by sweep |V| - 1, and the next sweep
    confirms it; without a back edge the first sweep is the exact fixpoint
    and the second relaxes nothing. With such a cycle, a settled sweep
    would be a fixpoint along it, which its nonzero weight rules out: a
    cycle's weight is a sum of signed powers of the codec base with fewer
    than base/2 of each. So the budget decides admissibility whatever the
    order. The same holds for nodes without a path to the sink, which lead
    to a cycle without one: a cold start that misses such a node fails at
    once, as the sweeps would. Settled values are checked to be in range,
    as a guard of the encoding. The cone is never warm-started from its
    old codes: from there values can creep around a cycle one lap per
    sweep, and the budget would no longer decide it.
    """
    weight, succ_rest = gi.weight[player], gi.rest[player]
    pred = gi.pred[player], gi.pred[1 - player]
    if prev is None:
        sink = gi.sink
        roots = [u for u in pred[0][sink] if succ_first[u] == sink] + pred[1][sink]
        values = [0] * len(gi.ids)
        order, back = successors_first(gi, succ_first, player, roots, values)
        if len(order) < len(gi.ids) - 1:
            # the DFS missed a node without a path to the sink
            raise NotAdmissibleError("valuation fixpoint did not stabilize")
    else:
        values = list(prev)
        order, back = successors_first(gi, succ_first, player, switched, values)
    budget = min(max(len(gi.ids), 2), len(back) + 2)
    if not sweep_to_fixpoint(weight, order, succ_first, succ_rest, values, pred, back, budget):
        raise NotAdmissibleError("valuation fixpoint did not stabilize")
    # by the argument above settled values are in range, so this check,
    # made on every call, only guards the encoding: no input is known to
    # reach the raise. Only the swept nodes can be out of range, and the
    # smallest index is the one an ascending scan of every node would name.
    bound = gi.finite_bound
    out = [v for v in order if not -bound < values[v] < bound]
    if out:
        raise NotAdmissibleError(
            f"node {gi.ids[min(out)]} cannot reach the sink under this strategy"
        )
    return values


def counter_choices(
    gi: GameIndex, codes: Sequence[int], player: int, edges: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The index edges of ``edges``, out of nodes of ``player``'s opponent,
    that are the opponent's optimal response to the fixpoint ``codes`` of
    ``player``: the least code of the successors, smallest node id on ties.

    The least code is read off the fixpoint equation of :func:`solve_values`,
    ``codes[v] = weight[v] + min(codes[u] for u in succ[v])``, which holds at
    every opponent node but the sink, whose code is fixed at 0 and whose
    least successor code is taken directly. So only an edge that attains
    it needs a scan of its source's successors for a smaller id.
    """
    weight, succ, sink = gi.weight[player], gi.succ, gi.sink
    out = []
    for v, w in edges:
        x = codes[w]
        if v == sink:
            if x != min([codes[u] for u in succ[v]]):
                continue
        elif x != codes[v] - weight[v]:
            continue
        for u in succ[v]:
            if u < w and codes[u] == x:
                break
        else:
            out.append((v, w))
    return out


def valuation_from_codes(gi: GameIndex, values: list[int], player: int) -> Valuation:
    """Wrap an encoded value array into a Valuation."""
    return Valuation(player, tuple(values), gi)


def valuate(game: ParityGame, strategy: Strategy) -> Valuation:
    """Value every node of the strategy subgraph against a best-responding
    opponent, from a cold start; the returned counterstrategy attains the
    optimum everywhere.

    Raises ValueError for an invalid strategy, and NotAdmissibleError when
    the opponent can force a cycle of their own parity (or trap the pebble
    away from the sink).
    """
    check_strategy(game, strategy)
    gi = game_index(game)
    player = strategy.player
    return valuation_from_codes(gi, solve_values(gi, gi.strategy_array(strategy), player), player)


def is_admissible(game: ParityGame, strategy: Strategy) -> bool:
    """True iff every cycle avoiding the sink in the strategy subgraph has
    its top priority of the strategy owner's winning parity.

    Decided by running the valuation fixpoint and reporting whether it
    stabilizes at finite values.
    """
    try:
        valuate(game, strategy)
    except NotAdmissibleError:
        return False
    return True


def improving_edges(
    gi: GameIndex, strat: Sequence[int], codes: Sequence[int], player: int
) -> list[tuple[int, int]]:
    """The strict-improvement set I as index edges: moves of ``player``
    whose target beats the current choice under the player's own codes."""
    succ = gi.succ
    out = []
    for v in gi.nodes[player]:
        current = codes[strat[v]]
        for w in succ[v]:
            if codes[w] > current:
                out.append((v, w))
    return out


def weak_edges(
    edges: list[tuple[int, int]],
    strat: Sequence[int],
    opponent_codes: Sequence[int],
) -> list[tuple[int, int]]:
    """The index edges of ``edges`` in the weak set J: moves whose target
    gives the opponent, under its own codes, no more than the current
    choice ``strat[v]`` does."""
    return [(v, w) for v, w in edges if opponent_codes[w] <= opponent_codes[strat[v]]]


def _id_edges(gi: GameIndex, edges: list[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    ids = gi.ids
    return frozenset((ids[v], ids[w]) for v, w in edges)


def improving_moves(
    game: ParityGame, strategy: Strategy, xi: Valuation
) -> frozenset[tuple[int, int]]:
    """Edges whose target strictly improves on the current choice's target
    under the player's own valuation. Raises ValueError for an invalid
    strategy."""
    check_strategy(game, strategy)
    gi = game_index(game)
    strat = gi.strategy_array(strategy)
    return _id_edges(gi, improving_edges(gi, strat, xi.codes, strategy.player))


def j_set(
    game: ParityGame, strategy: Strategy, xi_opponent: Valuation
) -> frozenset[tuple[int, int]]:
    """Edges whose target is weakly better for the player than the current
    choice under the *opponent's* valuation; always contains the current
    choices themselves. Raises ValueError for an invalid strategy."""
    check_strategy(game, strategy)
    gi = game_index(game)
    strat = gi.strategy_array(strategy)
    edges = [(v, w) for v in gi.nodes[strategy.player] for w in gi.succ[v]]
    return _id_edges(gi, weak_edges(edges, strat, xi_opponent.codes))
