"""The three improvement loops, iteration tracing, and optimality checks.

All loops valuate, select candidate edges, apply the improvement rule's
choice, and repeat until no candidate remains:

* single-player improvement: candidates are the player's improving moves;
* symmetric improvement: each player's improving moves are filtered to the
  edges of the opponent's optimal counterstrategy;
* generalized symmetric improvement: the filter is the weak candidate set
  under the opponent's valuation instead of the counterstrategy edges.

One loop serves all three. It keeps each piece of per-player state (the
strategy, its subgraph arrays, its codes, the nodes switched since its last
valuation, its improving edges) in a two-slot list indexed by
``PLAYER0``/``PLAYER1`` and runs each step once per player that has a start
strategy: one in single-player improvement, both otherwise. The cache of
counterstrategy choices is crossed: ``counter[q]`` holds the opponent's best
response to player ``q``'s codes, is emptied when ``q`` is revalued, and
filters the edges of player ``1 - q``.

The loops rewire both strategies simultaneously from one chosen set per
iteration. A player is revalued when it has never been valued or has
switched since: the first valuation starts cold, each later one resumes
from the previous and recomputes only the backward cone of the switched
nodes. An "iteration" is a pass that applies at least one switch; the
final pass that only detects termination is recorded in the trace but not
counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .game import PLAYER0, PLAYER1, ParityGame, Strategy, check_strategy
from .rules import Edge, ImprovementRule, RuleContext
from .valuation import (
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
    # player 0's valuation the check ran on; on an optimal pair it is also
    # player 1's, node for node
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


def _strategy_pair_bound(game: ParityGame, cap: int = 10**12) -> int:
    bound = 1
    for v in game.node_ids:
        bound *= max(len(set(game.successors(v))), 1)
        if bound > cap:
            return cap
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
    # without a start strategy stay unused
    strategy: list[list[int | None] | None] = [None, None]
    first: list[list[int] | None] = [None, None]
    rest: list[list[tuple[int, ...]] | None] = [None, None]
    codes: list[list[int] | None] = [None, None]
    # nodes switched since each player's last valuation, whose backward
    # cone is all that the next valuation recomputes
    switched: list[list[int]] = [[], []]
    improving: list[list[tuple[int, int]]] = [[], []]
    # counter[q]: the opponent's best response to player q's codes at the
    # sources asked for so far; it filters the edges of player 1 - q
    counter: list[dict[int, int]] = [{}, {}]
    for p in players:
        strategy[p] = gi.strategy_array(starts[p])
        first[p], rest[p] = gi.subgraph_arrays(strategy[p], p)

    records: list[IterationRecord] = []
    switching = 0
    bound = _strategy_pair_bound(game)
    passes = 0

    while True:
        passes += 1
        if passes > bound + 1:
            raise SolverInvariantError("iteration count exceeded the strategy-pair bound")

        for p in players:
            if codes[p] is None or switched[p]:
                codes[p] = solve_values(gi, first[p], rest[p], p == PLAYER0, codes[p], switched[p])
                switched[p] = []
                improving[p] = improving_edges(gi, strategy[p], codes[p], p)
                counter[p] = {}
        candidates: list[tuple[int, int]] = []
        for p in players:
            q = 1 - p
            if mode == SI:
                candidates += improving[p]
            elif mode == SSI:
                missing = tuple(dict.fromkeys(v for v, _ in improving[p] if v not in counter[q]))
                if missing:
                    counter[q].update(counter_choices(gi, codes[q], q == PLAYER0, missing))
                candidates += [(v, w) for v, w in improving[p] if counter[q][v] == w]
            else:  # GSSI
                candidates += weak_edges(improving[p], strategy[p], codes[q], p)

        sizes = (len(improving[PLAYER0]), len(improving[PLAYER1]))
        if not candidates:
            records.append(IterationRecord(passes, (), *sizes, 0))
            break

        ctx = RuleContext(gi, codes[PLAYER0], codes[PLAYER1])
        id_candidates = sorted((ids[v], ids[w]) for v, w in candidates)
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
            p = PLAYER0 if gi.owner0[v] else PLAYER1
            strategy[p][v] = first[p][v] = w
            switched[p].append(v)
            switches.append((p, v_id, w_id))
        records.append(IterationRecord(passes, tuple(switches), *sizes, len(candidates)))
        switching += 1

    final: list[Strategy | None] = [None, None]
    xi: list[Valuation | None] = [None, None]
    for p in players:
        final[p] = Strategy(p, {ids[v]: ids[w] for v, w in enumerate(strategy[p]) if w is not None})
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
    agree node-wise; violations are listed in the certificate."""
    xi_sigma = valuate(game, sigma)
    xi_tau = valuate(game, tau)
    imp_sigma = improving_moves(game, sigma, xi_sigma)
    imp_tau = improving_moves(game, tau, xi_tau)
    # both valuations share the game's codec, so equal codes mean equal values
    mismatched = tuple(
        v for v, a, b in zip(game.node_ids, xi_sigma.codes, xi_tau.codes) if a != b
    )
    ok = not imp_sigma and not imp_tau and not mismatched
    return OptimalityCertificate(ok, imp_sigma, imp_tau, mismatched, xi_sigma)


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
