"""The three improvement loops, iteration tracing, and optimality checks.

All loops valuate, select candidate edges, apply the improvement rule's
choice, and repeat until no candidate remains:

* single-player improvement: candidates are the player's improving moves;
* symmetric improvement: each player's improving moves are filtered to the
  edges of the opponent's optimal counterstrategy;
* generalized symmetric improvement: the filter is the weak candidate set
  under the opponent's valuation instead of the counterstrategy edges.

The loops rewire both strategies simultaneously from one chosen set per
iteration. A player's first valuation starts cold; each later one resumes
from the previous and recomputes only the backward cone of the nodes
switched since. An "iteration" is a pass that applies at least one switch; the
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
    """Ordered per-pass records plus the terminal strategies."""

    iterations: tuple[IterationRecord, ...]
    final_sigma: Strategy | None
    final_tau: Strategy | None


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

    sigma = gi.strategy_array(sigma0) if sigma0 is not None else None
    tau = gi.strategy_array(tau0) if tau0 is not None else None
    sf0 = sr0 = sf1 = sr1 = None
    if sigma is not None:
        sf0, sr0 = gi.subgraph_arrays(sigma, PLAYER0)
    if tau is not None:
        sf1, sr1 = gi.subgraph_arrays(tau, PLAYER1)

    vals0: list[int] | None = None
    vals1: list[int] | None = None
    sigma_dirty = sigma is not None
    tau_dirty = tau is not None
    # nodes switched since each player's last valuation, whose backward
    # cone is all that the next valuation recomputes
    sigma_switched: list[int] = []
    tau_switched: list[int] = []
    i_sigma: list[tuple[int, int]] = []
    i_tau: list[tuple[int, int]] = []
    sigma_bar: dict[int, int] = {}
    tau_bar: dict[int, int] = {}

    records: list[IterationRecord] = []
    switching = 0
    bound = _strategy_pair_bound(game)
    passes = 0

    while True:
        passes += 1
        if passes > bound + 1:
            raise SolverInvariantError("iteration count exceeded the strategy-pair bound")

        if sigma_dirty:
            assert sigma is not None and sf0 is not None and sr0 is not None
            vals0 = solve_values(gi, sf0, sr0, True, vals0, sigma_switched)
            sigma_switched = []
            i_sigma = improving_edges(gi, sigma, vals0, PLAYER0)
            sigma_bar = {}
            sigma_dirty = False
        if tau_dirty:
            assert tau is not None and sf1 is not None and sr1 is not None
            vals1 = solve_values(gi, sf1, sr1, False, vals1, tau_switched)
            tau_switched = []
            i_tau = improving_edges(gi, tau, vals1, PLAYER1)
            tau_bar = {}
            tau_dirty = False

        candidates: list[tuple[int, int]] = []
        if mode == SI:
            candidates = list(i_sigma if sigma is not None else i_tau)
        elif mode == SSI:
            missing = tuple(dict.fromkeys(v for v, _ in i_sigma if v not in tau_bar))
            if missing:
                tau_bar.update(counter_choices(gi, vals1, False, missing))
            missing = tuple(dict.fromkeys(v for v, _ in i_tau if v not in sigma_bar))
            if missing:
                sigma_bar.update(counter_choices(gi, vals0, True, missing))
            candidates = [(v, w) for v, w in i_sigma if tau_bar[v] == w]
            candidates += [(v, w) for v, w in i_tau if sigma_bar[v] == w]
        else:  # GSSI
            candidates = weak_edges(i_sigma, sigma, vals1, PLAYER0)
            candidates += weak_edges(i_tau, tau, vals0, PLAYER1)

        if not candidates:
            records.append(
                IterationRecord(passes, (), len(i_sigma), len(i_tau), 0)
            )
            break

        ctx = RuleContext(gi, vals0, vals1)
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
            if gi.owner0[v]:
                assert sigma is not None and sf0 is not None
                sigma[v] = w
                sf0[v] = w
                sigma_dirty = True
                sigma_switched.append(v)
                switches.append((PLAYER0, v_id, w_id))
            else:
                assert tau is not None and sf1 is not None
                tau[v] = w
                sf1[v] = w
                tau_dirty = True
                tau_switched.append(v)
                switches.append((PLAYER1, v_id, w_id))
        records.append(
            IterationRecord(passes, tuple(switches), len(i_sigma), len(i_tau), len(candidates))
        )
        switching += 1

    final_sigma = (
        Strategy(PLAYER0, {ids[v]: ids[w] for v, w in enumerate(sigma) if w is not None})
        if sigma is not None
        else None
    )
    final_tau = (
        Strategy(PLAYER1, {ids[v]: ids[w] for v, w in enumerate(tau) if w is not None})
        if tau is not None
        else None
    )
    xi_sigma = valuation_from_codes(gi, vals0, PLAYER0) if vals0 is not None else None
    xi_tau = valuation_from_codes(gi, vals1, PLAYER1) if vals1 is not None else None
    trace = IterationTrace(tuple(records), final_sigma, final_tau)
    return SolveResult(final_sigma, final_tau, xi_sigma, xi_tau, switching, trace)


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
    sigma, tau = sigma0, tau0
    for record in trace.iterations:
        sigma_edges = [(v, w) for owner, v, w in record.switches if owner == PLAYER0]
        tau_edges = [(v, w) for owner, v, w in record.switches if owner == PLAYER1]
        if sigma_edges:
            if sigma is None:
                raise ValueError("trace switches a player 0 edge but no strategy was given")
            sigma = sigma.rewired(sigma_edges)
        if tau_edges:
            if tau is None:
                raise ValueError("trace switches a player 1 edge but no strategy was given")
            tau = tau.rewired(tau_edges)
    return sigma, tau
