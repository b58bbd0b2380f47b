"""The three improvement loops, iteration tracing, and optimality checks.

All loops valuate, select candidate edges, apply the improvement rule's
choice, and repeat until no candidate remains:

* single-player improvement: candidates are the player's improving moves;
* symmetric improvement: each player's improving moves are filtered to the
  edges of the opponent's optimal counterstrategy, which
  :func:`~sinkgames.valuation.counter_choices` reads off the opponent's
  codes: these are always a fixpoint of
  :func:`~sinkgames.valuation.solve_values`, so the least successor code at
  any node but the sink is the node's own code less its weight;
* generalized symmetric improvement: the filter is the weak candidate set
  under the opponent's valuation instead of the counterstrategy edges.

One loop serves all three. It keeps each piece of per-player state (the
strategy as :meth:`~sinkgames.valuation.GameIndex.strategy_array` holds
it, its codes, the nodes switched since its last valuation, its improving
edges) in a two-slot list indexed by ``PLAYER0``/``PLAYER1`` and runs
each step once per player that has a start strategy: one in
single-player improvement, both otherwise. Each player's codes are that player's gain (see
:mod:`sinkgames.valuation`), so no step branches on the player.

The loops rewire both strategies simultaneously from one chosen set per
iteration. A player is revalued when it has never been valued or has
switched since: the first valuation starts cold, each later one resumes
from the previous and recomputes only the backward cone of the switched
nodes. The first valuation is also the admissibility check of a start: it
raises ``NotAdmissibleError`` naming the start that fails it. An
"iteration" is a pass that applies at least one switch; the final pass
that only detects termination is recorded in the trace but not counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .game import PLAYER0, PLAYER1, ParityGame, Strategy, check_strategy
from .rules import Edge, ImprovementRule, RuleContext
from .valuation import (
    GameIndex,
    NotAdmissibleError,
    Valuation,
    counter_choices,
    game_index,
    improving_edges,
    improving_moves,
    solve_values,
    valuate,
    valuation_from_codes,
    weak_edges,
)

SI = "si"
SSI = "ssi"
GSSI = "gssi"


class SolverInvariantError(Exception):
    """An internal invariant broke mid-run (indicates a bug, not bad input)."""


class NotSinkGameError(Exception):
    """A run switched into a strategy that keeps the play from the sink
    (indicates bad input, not a bug).

    Let c be the codes of an admissible strategy of player p. Along each
    edge u -> w of the subgraph after p's improving switches,
    ``c[u] <= weight[u] + c[w]``, strictly where u switched, so around any
    cycle of it the weights sum to at least 0 and, as the codec gives no
    cycle weight 0, to more: every such cycle has p's parity. A switched
    strategy that is not admissible therefore lets p keep the play from the
    sink on a cycle p wins, which a sink game must rule out.
    """


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One loop pass: applied switches with owner tags and candidate sizes."""

    index: int
    switches: tuple[tuple[int, int, int], ...]  # (owner, from, to)
    improving_sigma: int
    improving_tau: int
    candidates: int


@dataclass(frozen=True)
class IterationTrace:
    """Ordered per-pass records."""

    iterations: tuple[IterationRecord, ...]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run; ``iterations`` counts switching passes."""

    sigma: Strategy | None
    tau: Strategy | None
    xi_sigma: Valuation | None
    xi_tau: Valuation | None
    iterations: int
    trace: IterationTrace


@dataclass(frozen=True)
class OptimalityCertificate:
    """Result of the optimal-pair check with any violating edges/nodes."""

    ok: bool
    improving_sigma: frozenset[Edge]
    improving_tau: frozenset[Edge]
    mismatched_nodes: tuple[int, ...]
    # player 0's valuation the check ran on; on an optimal pair player 1's
    # codes are its codes negated, node for node
    xi_sigma: Valuation = field(repr=False, compare=False)

    def describe(self) -> str:
        if self.ok:
            return "optimal pair"
        parts = []
        if self.improving_sigma:
            parts.append(f"player 0 improving moves {sorted(self.improving_sigma)}")
        if self.improving_tau:
            parts.append(f"player 1 improving moves {sorted(self.improving_tau)}")
        if self.mismatched_nodes:
            parts.append(f"valuation mismatch at nodes {list(self.mismatched_nodes)}")
        return "; ".join(parts)


def _strategy_pair_bound(gi: GameIndex) -> int:
    # rows are nonempty, so the product never falls: it can stop at the cap
    bound = 1
    for row in gi.succ:
        bound *= len(row)
        if bound >= 10**12:
            return 10**12
    return bound


def _run_loop(
    game: ParityGame,
    sigma0: Strategy | None,
    tau0: Strategy | None,
    rule: ImprovementRule,
    mode: str,
) -> SolveResult:
    gi = game_index(game)
    ids = gi.ids
    index = gi.index
    starts = (sigma0, tau0)
    players = tuple(p for p in (PLAYER0, PLAYER1) if starts[p] is not None)

    # per-player state, indexed by PLAYER0/PLAYER1; the slots of a player
    # without a start strategy stay unused. first[p][v] is p's choice at
    # each node v of p.
    first = [None if start is None else gi.strategy_array(start) for start in starts]
    codes: list[list[int] | None] = [None, None]
    # nodes switched since each player's last valuation, whose backward
    # cone is all that the next valuation recomputes
    switched: list[list[int]] = [[], []]
    improving: list[list[tuple[int, int]]] = [[], []]

    records: list[IterationRecord] = []
    switching = 0
    bound = _strategy_pair_bound(gi)
    passes = 0

    while True:
        passes += 1
        if passes > bound + 1:
            raise SolverInvariantError("iteration count exceeded the strategy-pair bound")

        for p in players:
            if codes[p] is None or switched[p]:
                try:
                    codes[p] = solve_values(gi, first[p], p, codes[p], switched[p])
                except NotAdmissibleError as exc:
                    if codes[p] is None:
                        start = "" if mode == SI else f" player {p}"
                        raise NotAdmissibleError(
                            f"the initial{start} strategy is not admissible: {exc}"
                        ) from exc
                    raise NotSinkGameError(
                        f"not a sink game: after improving switches player {p} "
                        "can keep the play from the sink on a cycle it wins"
                    ) from exc
                switched[p] = []
                improving[p] = improving_edges(gi, first[p], codes[p], p)
        candidates: list[tuple[int, int]] = []
        for p in players:
            q = 1 - p
            if mode == SI:
                candidates += improving[p]
            elif mode == SSI:
                candidates += counter_choices(gi, codes[q], q, improving[p])
            else:  # GSSI
                candidates += weak_edges(improving[p], first[p], codes[q])

        sizes = (len(improving[PLAYER0]), len(improving[PLAYER1]))
        if not candidates:
            records.append(IterationRecord(passes, (), *sizes, 0))
            break

        ctx = RuleContext(gi, codes[PLAYER0], codes[PLAYER1])
        id_candidates = sorted([(ids[v], ids[w]) for v, w in candidates])
        chosen = rule.select(id_candidates, ctx)
        if not chosen:
            raise SolverInvariantError(
                f"rule {rule.name!r} returned no edge for a nonempty candidate set"
            )
        candidate_set = set(id_candidates)
        sources_seen: set[int] = set()
        switches = []
        for v_id, w_id in sorted(chosen):
            if (v_id, w_id) not in candidate_set:
                raise SolverInvariantError(f"rule chose non-candidate edge ({v_id}, {w_id})")
            if v_id in sources_seen:
                raise SolverInvariantError(f"rule chose two edges out of node {v_id}")
            sources_seen.add(v_id)
            v, w = index[v_id], index[w_id]
            p = gi.owner[v]
            first[p][v] = w
            switched[p].append(v)
            switches.append((p, v_id, w_id))
        records.append(IterationRecord(passes, tuple(switches), *sizes, len(candidates)))
        switching += 1

    final: list[Strategy | None] = [None, None]
    xi: list[Valuation | None] = [None, None]
    for p in players:
        final[p] = Strategy(p, {ids[v]: ids[first[p][v]] for v in gi.nodes[p]})
        xi[p] = valuation_from_codes(gi, codes[p], p)
    trace = IterationTrace(tuple(records))
    return SolveResult(final[PLAYER0], final[PLAYER1], xi[PLAYER0], xi[PLAYER1], switching, trace)


def run_si(game: ParityGame, start: Strategy, rule: ImprovementRule) -> SolveResult:
    """Single-player improvement from an admissible start; the final
    strategy has no improving moves."""
    check_strategy(game, start)
    if start.player == PLAYER0:
        return _run_loop(game, start, None, rule, SI)
    return _run_loop(game, None, start, rule, SI)


def run_ssi(
    game: ParityGame, sigma0: Strategy, tau0: Strategy, rule: ImprovementRule
) -> SolveResult:
    """Symmetric improvement: both players improve simultaneously, each
    restricted to edges of the opponent's optimal counterstrategy."""
    check_strategy(game, sigma0)
    check_strategy(game, tau0)
    return _run_loop(game, sigma0, tau0, rule, SSI)


def run_gssi(
    game: ParityGame, sigma0: Strategy, tau0: Strategy, rule: ImprovementRule
) -> SolveResult:
    """Generalized symmetric improvement: candidate edges must weakly
    improve under the opponent's valuation rather than follow it exactly."""
    check_strategy(game, sigma0)
    check_strategy(game, tau0)
    return _run_loop(game, sigma0, tau0, rule, GSSI)


def verify_optimal(game: ParityGame, sigma: Strategy, tau: Strategy) -> OptimalityCertificate:
    """Check that neither strategy has improving moves and both valuations
    agree node-wise; violations are listed in the certificate.

    An optimal pair is accepted from its own plays, in one pass (see
    :func:`_pair_codes`); any other pair is valued from a cold start, player
    0's strategy first, and its violations are read off the two valuations.
    """
    check_strategy(game, sigma)
    try:
        check_strategy(game, tau)
    except ValueError:
        # as when valued in turn, an inadmissible sigma is reported first
        valuate(game, sigma)
        raise
    gi = game_index(game)
    codes = _pair_codes(gi, gi.strategy_array(sigma, tau))
    if codes is not None:
        xi = valuation_from_codes(gi, codes, PLAYER0)
        return OptimalityCertificate(True, frozenset(), frozenset(), (), xi)
    xi_sigma, xi_tau = valuate(game, sigma), valuate(game, tau)
    imp_sigma = improving_moves(game, sigma, xi_sigma)
    imp_tau = improving_moves(game, tau, xi_tau)
    # both valuations share the game's codec and player 1's codes are
    # negated, so equal values have codes that sum to 0
    mismatched = tuple(
        v for v, a, b in zip(game.node_ids, xi_sigma.codes, xi_tau.codes) if a + b != 0
    )
    ok = not imp_sigma and not imp_tau and not mismatched
    return OptimalityCertificate(ok, imp_sigma, imp_tau, mismatched, xi_sigma)


def _pair_codes(gi: GameIndex, pair: list[int]) -> list[int] | None:
    """Player 0's codes of the plays of a strategy pair, whose choices at
    both players' nodes ``pair`` holds, when they certify the pair optimal;
    else None.

    Each node's code is its weight plus its choice's, and the sink's is 0.
    They certify the pair when every play reaches the sink and each choice
    is a best successor for its owner: the most code at player 0's nodes,
    the least at player 1's. Then the codes solve the fixpoint equations of
    :func:`~sinkgames.valuation.solve_values` for player 0's strategy, as
    player 1's choices attain the least. Around a cycle of that strategy's
    subgraph the equations give a weight of at least 0, and the codec gives
    no cycle weight 0, so the strategy is admissible and the codes are its
    one finite valuation. The negated codes are player 1's valuation alike,
    so neither player has an improving move and the two agree. Conversely,
    on an optimal pair each play follows edges whose code drops by exactly
    the source's weight, which close no cycle, as its weight would be 0;
    so every pair the two valuations accept is accepted here.
    """
    weight = gi.weight[PLAYER0]
    codes: list = [None] * len(pair)
    codes[gi.sink] = 0
    for start in range(len(pair)):
        if codes[start] is not None:
            continue
        # walk on to a coded node, marking the path with False
        path = [start]
        codes[start] = False
        v = pair[start]
        while codes[v] is None:
            codes[v] = False
            path.append(v)
            v = pair[v]
        code = codes[v]
        if code is False:
            return None  # the play closes a cycle without the sink
        while path:
            u = path.pop()
            code += weight[u]
            codes[u] = code
    succ = gi.succ
    for v in gi.nodes[PLAYER0]:
        best = codes[pair[v]]
        for w in succ[v]:
            if codes[w] > best:
                return None
    for v in gi.nodes[PLAYER1]:
        best = codes[pair[v]]
        for w in succ[v]:
            if codes[w] < best:
                return None
    return codes


def replay_trace(
    game: ParityGame,
    sigma0: Strategy | None,
    tau0: Strategy | None,
    trace: IterationTrace,
) -> tuple[Strategy | None, Strategy | None]:
    """Re-apply a trace's switch sequence to the initial strategies."""
    strategies = [sigma0, tau0]
    for record in trace.iterations:
        for p in (PLAYER0, PLAYER1):
            edges = [(v, w) for owner, v, w in record.switches if owner == p]
            if not edges:
                continue
            if strategies[p] is None:
                raise ValueError(f"trace switches a player {p} edge but no strategy was given")
            strategies[p] = strategies[p].rewired(edges)
    return strategies[PLAYER0], strategies[PLAYER1]
