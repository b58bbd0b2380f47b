"""Every improvement rule at once, on small instances of both families.

A rule may pick any nonempty subset of the candidate edges with at most one
edge per source. A memoized search over the (σ, τ) pairs that some rule
reaches, built on the public API, gives the fewest and the most iterations
over all rules; README cites the minima. Each minimum is replayed through
the solver by a rule that makes the minimizing choices.
"""

from dataclasses import dataclass
from itertools import product

import pytest

from sinkgames import (
    PLAYER0,
    ImprovementRule,
    Strategy,
    expected_iterations,
    gen_table1,
    gen_table2,
    improving_moves,
    j_set,
    run_gssi,
    run_ssi,
    valuate,
    verify_optimal,
)


@dataclass(frozen=True)
class State:
    """One reachable pair: its candidate set, the fewest and the most
    iterations left over all rules, and a choice that attains the fewest."""

    candidates: frozenset[tuple[int, int]]
    fewest: int
    most: int
    fewest_choice: tuple[tuple[int, int], ...]


class RuleSpace:
    """The (σ, τ) pairs that some rule reaches when ``algo`` runs on
    ``game``, each explored once."""

    def __init__(self, game, algo):
        self.game = game
        self.algo = algo
        self.states: dict[tuple[frozenset, frozenset], State] = {}

    def candidates(self, sigma, tau):
        """The solver's candidate set: improving moves filtered to the edges
        of the opponent valuation's counterstrategy (ssi) or to the weak set
        J under it (gssi)."""
        game = self.game
        xi_sigma, xi_tau = valuate(game, sigma), valuate(game, tau)
        if self.algo == "ssi":
            keep_sigma = set(xi_tau.counter.choice.items())
            keep_tau = set(xi_sigma.counter.choice.items())
        else:
            keep_sigma = j_set(game, sigma, xi_tau)
            keep_tau = j_set(game, tau, xi_sigma)
        return (improving_moves(game, sigma, xi_sigma) & keep_sigma) | (
            improving_moves(game, tau, xi_tau) & keep_tau
        )

    def step(self, sigma, tau, chosen):
        owner = self.game.owner
        return (
            sigma.rewired(e for e in chosen if owner(e[0]) == PLAYER0),
            tau.rewired(e for e in chosen if owner(e[0]) != PLAYER0),
        )

    def explore(self, sigma: Strategy, tau: Strategy) -> State:
        key = (frozenset(sigma.choice.items()), frozenset(tau.choice.items()))
        if key not in self.states:
            candidates = frozenset(self.candidates(sigma, tau))
            by_source: dict[int, list[tuple[int, int]]] = {}
            for edge in sorted(candidates):
                by_source.setdefault(edge[0], []).append(edge)
            # (fewest, most, choice) of each choice a rule may make
            options = []
            for pick in product(*([None, *edges] for edges in by_source.values())):
                chosen = tuple(e for e in pick if e is not None)
                if chosen:
                    after = self.explore(*self.step(sigma, tau, chosen))
                    options.append((after.fewest + 1, after.most + 1, chosen))
            if options:
                fewest, _, choice = min(options)
                most = max(most for _, most, _ in options)
            else:
                fewest, most, choice = 0, 0, ()
            self.states[key] = State(candidates, fewest, most, choice)
        return self.states[key]


def replay_fewest(space, inst, runner):
    """Run the solver with a rule that checks each candidate set against the
    search's and then makes the minimizing choice."""
    pair = [inst.sigma0, inst.tau0]

    def select(candidates, ctx):
        state = space.explore(*pair)
        assert len(candidates) == len(state.candidates)
        assert set(candidates) == state.candidates
        pair[:] = space.step(*pair, state.fewest_choice)
        return list(state.fewest_choice)

    rule = ImprovementRule("fewest", select)
    result = runner(inst.game, inst.sigma0, inst.tau0, rule)
    assert (result.sigma, result.tau) == tuple(pair)
    return result


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_table1_ssi_needs_the_closed_form_under_every_rule(n):
    inst = gen_table1(n)
    space = RuleSpace(inst.game, "ssi")
    start = space.explore(inst.sigma0, inst.tau0)
    assert start.fewest == 2 ** (n + 1) - 3 == expected_iterations("table1", "ssi", n)
    assert start.most == 5 * 2 ** (n - 1) - 3
    assert len(space.states) == 2 ** (n + 2) - 4
    result = replay_fewest(space, inst, run_ssi)
    assert result.iterations == start.fewest
    assert verify_optimal(inst.game, result.sigma, result.tau).ok


@pytest.mark.parametrize("n, fewest, most", [(3, 22, 37), (4, 48, 81)])
def test_table2_gssi_has_rules_below_the_closed_form(n, fewest, most):
    inst = gen_table2(n)
    space = RuleSpace(inst.game, "gssi")
    start = space.explore(inst.sigma0, inst.tau0)
    assert (start.fewest, start.most) == (fewest, most)
    assert start.fewest < expected_iterations("table2", "gssi", n)
    result = replay_fewest(space, inst, run_gssi)
    assert result.iterations == start.fewest
    assert verify_optimal(inst.game, result.sigma, result.tau).ok
