"""Strategy valuations, improving-move sets, and weak candidate sets.

The valuation of a strategy assigns every node the play value it guarantees
against a best-responding opponent. It is computed as the unique finite
fixpoint of a local relaxation over the strategy subgraph: each node's
value is its own priority added to the opponent-optimal successor value.

The fixpoint runs on integer-encoded play values (see
:class:`sinkgames.playvalues.ValueCodec`) so that relaxation is plain
integer arithmetic. Each valuation's codes are the valued player's gain:
player 1's weights are player 0's negated, so either player prefers higher
codes and the opponent always takes the least. Values stay encoded inside
the library: the candidate sets I and J are computed on the code arrays,
and a :class:`Valuation` decodes its play values only when they are read,
undoing player 1's sign, and finds the opponent's best response only when
``counter`` is read. Any relaxation schedule reaches the same fixpoint,
which is what makes runs reproducible.

The improvement loops revalue a strategy incrementally. They only switch
along improving edges, so codes only rise, and :func:`solve_values` relaxes
the play subtree of the switched nodes: the nodes whose play, the choice or
the opponent's best response at each step, crosses one. Every other node
keeps its exact code. A cold start, and a resume from switches that do not
all strictly improve, relaxes every node but the sink.

A cold start is swept in the reverse postorder of one DFS over reversed
subgraph edges from the sink, which puts every node after the nodes it
leads to except along a cycle (Tarjan, SIAM J. Comput. 1972), until a
sweep changes nothing; the sweep budget decides admissibility. After the
first sweep a node is relaxed again only when one of its successors has
changed (Ramalingam & Reps, J. Algorithms 1996), so an acyclic subgraph is
relaxed once.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

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
    p's strategy subgraph, and :meth:`player_arrays` holds the others, built
    when p is first valued or read. The index is a cache derived from an
    immutable game, which :func:`game_index` keeps on the game itself. It
    holds no reference to its game, so the two are freed together. ``ids``,
    ``index`` and ``owner`` are the game's own id tuple, position dict and
    owner list, and so is ``succ`` when the ids are 0..n-1 and each row
    lists distinct int node ids: read only.
    """

    __slots__ = (
        "ids",
        "index",
        "owner",
        "succ",
        "pred",
        "priority",
        "_arrays",
        "codec",
        "sink",
        "nodes",
    )

    def __init__(self, game: ParityGame):
        if game.sink is None:
            raise ValueError("game has no designated sink node")
        ids, index, owners = game._ids, game._pos, game._owners
        priorities, successors = game._priorities, game._rows
        if not all(successors):
            v = next(v for v, row in zip(ids, successors) if not row)
            raise ValueError(f"node {v} has no successor")
        n = len(ids)
        self.codec = ValueCodec(priorities)
        # pred[p][w]: the nodes of player p with an edge to w
        pred = ([[] for _ in range(n)], [[] for _ in range(n)])
        # duplicate edges change no minimum, so each successor is kept
        # once, in declaration order; the game's rows are that already when
        # the ids are 0..n-1 and each row lists distinct int node ids
        flat = list(chain.from_iterable(successors))
        if (
            ids[-1] == n - 1
            and set(map(type, flat)) == {int}
            and index.keys() >= set(flat)
            and len(flat) == sum(map(len, map(set, successors)))
        ):
            succ = successors
        else:
            try:
                succ = [tuple(dict.fromkeys(map(index.__getitem__, row))) for row in successors]
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
        self.pred = pred
        self.priority = priorities
        self._arrays = [None, None]
        self.sink = index[game.sink]
        # nodes[p]: the nodes of player p
        self.nodes = tuple(
            tuple([v for v, who in enumerate(owners) if who == p]) for p in (PLAYER0, PLAYER1)
        )

    def player_arrays(self, p: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """Player p's ``weight`` and ``rest``, built on first use (two threads
        may each build equal ones): ``weight[v]`` is v's weight in p's codes,
        the gain of p, one int per priority, and ``rest[v]`` v's successors
        in p's subgraph after the first, none at p's own nodes."""
        arrays = self._arrays[p]
        if arrays is None:
            sign = 1 if p == PLAYER0 else -1
            weights = {q: sign * self.codec.weight(q) for q in self.codec.priorities}
            rest = [() if who == p else row[1:] for who, row in zip(self.owner, self.succ)]
            arrays = self._arrays[p] = (list(map(weights.__getitem__, self.priority)), rest)
        return arrays

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
    """Node values of one player's strategy.

    The values are held encoded: ``codes[i]`` belongs to node ``gi.ids[i]``
    under ``gi.codec``, negated for player 1, so that higher codes are
    better for ``player`` whichever player it is. ``values`` decodes the
    codes and ``counter`` finds the opponent's best response to them, each
    when first read.
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
        opponent node the successor of least code, smallest id on ties."""
        gi = self.gi
        ids, opponent = gi.ids, gi.nodes[1 - self.player]
        response = [gi.sink] * len(ids)
        counter_choices(gi, self.codes, self.player, opponent, response)
        return Strategy(1 - self.player, {ids[v]: ids[response[v]] for v in opponent})


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
    gi: GameIndex, succ_first: list[int], player: int
) -> tuple[list[int], list[int]]:
    """The nodes with a path to the sink in the strategy subgraph, the sink
    left out, in the reverse postorder of one DFS over reversed subgraph
    edges from the sink's predecessors; and the nodes its back edges lead
    to, which are there exactly when those nodes span a cycle.

    In reverse postorder every node comes after its successors, except
    along a cycle, so each SCC follows the SCCs it reaches.
    """
    # the subgraph keeps the chosen edge of each node of the valued player
    # and every edge of the opponent's
    own_pred, opp_pred = gi.pred[player], gi.pred[1 - player]
    sink = gi.sink
    # None: unseen, False: on the DFS path, True: finished; the sink's
    # value is fixed, so the DFS never enters it
    state: list[bool | None] = [None] * len(gi.ids)
    state[sink] = True
    post: list[int] = []
    back: list[int] = []
    # a pushed ~v finishes v once everything pushed after it is done
    stack = [u for u in own_pred[sink] if succ_first[u] == sink] + opp_pred[sink]
    while stack:
        v = stack.pop()
        if v < 0:
            v = ~v
            state[v] = True
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
    prev: tuple[list[int], list[int]] | None = None,
    switched: Sequence[int] = (),
) -> tuple[list[int], list[int]]:
    """Encoded valuation of a strategy subgraph and the opponent's best
    response to it, as :func:`counter_choices` writes it; raises
    NotAdmissibleError.

    ``succ_first`` is the array of :meth:`GameIndex.strategy_array` for a
    strategy of ``player``, whose subgraph's other edges are
    ``gi.player_arrays(player)[1]``. The codes are that player's gain, player 1's
    negated, so the opponent takes the least successor code at its nodes
    whichever player is valued. ``prev`` resumes from the codes and response
    of the same player's admissible strategy before the nodes ``switched``
    changed their choice. When every switch strictly improves, codes only
    rise, so a node whose play avoids the switched nodes keeps its code, as
    the opponent can still follow that play, and its response, as no
    successor can newly tie below it: only the play subtree of the switched
    nodes is relaxed, which holds every node a switch cuts off from the
    sink, and the response is written there and at the sink. Without
    ``prev``, or when a switch does not strictly improve, every node but
    the sink is relaxed and responds (a cold start).

    The relaxed nodes, reset to the sentinel, are swept in the order of
    :func:`successors_first` for a cold start, or of one DFS preorder from
    the switched nodes over the predecessors whose play steps to the node
    reached, until a sweep changes nothing, within ``len(back) + 2`` sweeps
    but no more than ``max(|V|, 2)``. The seeds of
    :func:`sweep_to_fixpoint`, ``back``, are the nodes placed before one of
    their successors: the only nodes that read a value written after them.
    Sweep k leaves the values of a full sweep k, which have taken in every
    walk that leaves the relaxed nodes along at most k - 1 back edges, and
    which fall from the sentinel but never below a fixpoint. Without a cycle
    that favours the opponent, the opponent's best walk is a simple path,
    which takes each back edge at most once and fewer than |V| edges in all,
    so the values settle by sweep ``len(back) + 1`` and by sweep |V| - 1,
    and the next sweep confirms it; without a back edge the first sweep is
    the exact fixpoint and the second relaxes nothing. With such a cycle, a
    settled sweep would be a fixpoint along it, which its nonzero weight
    rules out (:class:`~sinkgames.playvalues.ValueCodec` gives no simple
    cycle weight 0). So the budget decides admissibility whatever the order.
    The same holds for nodes without a path to the sink, which lead to a
    cycle without one: a cold start that misses such a node fails at once,
    as the sweeps would. Settled values are checked to lie within the
    codec's ``finite_bound``, which holds every simple-path value and no
    value the budget leaves on the sentinel side, as a guard of the
    encoding. The relaxed nodes never start from their old codes: from there
    values can creep around a cycle one lap per sweep, and the budget would
    no longer decide it.
    """
    # one check per call: the slot is None until the player is first read
    weight, succ_rest = gi._arrays[player] or gi.player_arrays(player)
    pred = gi.pred[player], gi.pred[1 - player]
    n, sink, init = len(gi.ids), gi.sink, gi.codec.pos_code
    if prev is not None and all(weight[v] + prev[0][succ_first[v]] > prev[0][v] for v in switched):
        values, response = list(prev[0]), list(prev[1])
        # the sink's code is fixed: marked placed, it is never entered
        placed = [False] * n
        placed[sink] = True
        order, back = [], []
        stack = list(switched)
        while stack:
            v = stack.pop()
            if placed[v]:
                continue
            placed[v] = True
            order.append(v)
            values[v] = init
            for u in pred[0][v]:
                if succ_first[u] == v:
                    if placed[u]:
                        back.append(u)
                    else:
                        stack.append(u)
            for u in pred[1][v]:
                if placed[u]:
                    back.append(u)
                elif response[u] == v:
                    stack.append(u)
    else:
        order, back = successors_first(gi, succ_first, player)
        if len(order) < n - 1:
            # the DFS missed a node without a path to the sink
            raise NotAdmissibleError("valuation fixpoint did not stabilize")
        values, response = [init] * n, [sink] * n
        values[sink] = 0
    budget = min(max(n, 2), len(back) + 2)
    if not sweep_to_fixpoint(weight, order, succ_first, succ_rest, values, pred, back, budget):
        raise NotAdmissibleError("valuation fixpoint did not stabilize")
    # by the argument above settled values are in range, so this check,
    # made on every call, only guards the encoding: no input is known to
    # reach the raise. Only the swept nodes can be out of range, and the
    # smallest index is the one an ascending scan of every node would name.
    bound = gi.codec.finite_bound
    out = [v for v in order if not -bound < values[v] < bound]
    if out:
        raise NotAdmissibleError(
            f"node {gi.ids[min(out)]} cannot reach the sink under this strategy"
        )
    order.append(sink)
    counter_choices(gi, values, player, order, response)
    return values, response


def counter_choices(
    gi: GameIndex, codes: Sequence[int], player: int, nodes: Iterable[int], response: list[int]
) -> None:
    """Write into ``response``, at each node of ``nodes`` that ``player``'s
    opponent owns, the opponent's best response to the codes of ``player``:
    the successor of least code, smallest index (and so id) on ties."""
    owner, succ = gi.owner, gi.succ
    for v in nodes:
        if owner[v] != player:
            row = succ[v]
            w = row[0]
            m = codes[w]
            for u in row:
                x = codes[u]
                if x < m or (x == m and u < w):
                    m, w = x, u
            response[v] = w


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
    codes, _ = solve_values(gi, gi.strategy_array(strategy), player)
    return valuation_from_codes(gi, codes, player)


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
