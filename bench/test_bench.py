"""Tests of the benchmark's own checker and tracer.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sinkgames import cli, pgsolver, reduction  # noqa: E402


def solved(seed: int, n: int = 30):
    """A random game and the sinkgames winners result for it."""
    game = workloads.random_parity_game(random.Random(seed), n)
    result = reduction.solve_winners(pgsolver.parse_pgsolver(workloads.to_pgsolver(game)))
    return game, set(result.w0), set(result.w1), dict(result.strategy0), dict(result.strategy1)


def test_checker_accepts_results_and_rejects_a_moved_node():
    for seed in range(8):
        game, w0, w1, s0, s1 = solved(seed)
        assert checker.check_winners(game, w0, w1, s0, s1) is None
        for v in sorted(w0)[:5]:
            assert checker.check_winners(game, w0 - {v}, w1 | {v}, s0, s1) is not None
        for v in sorted(w1)[:5]:
            assert checker.check_winners(game, w0 | {v}, w1 - {v}, s0, s1) is not None


def test_checker_rejects_a_strategy_edge_redirected_out_of_its_region():
    redirected = 0
    for seed in range(8):
        game, w0, w1, s0, s1 = solved(seed)
        for player, region, strategy in ((0, w0, s0), (1, w1, s1)):
            for v in sorted(region):
                owner, _, moves = game[v]
                outside = [w for w in moves if w not in region]
                if owner == player and outside:
                    bad = dict(strategy) | {v: outside[0]}
                    strategies = (bad, s1) if player == 0 else (s0, bad)
                    error = checker.check_winners(game, w0, w1, *strategies)
                    assert error is not None and "leaves its region" in error
                    redirected += 1
                    break
    assert redirected > 0


def test_checker_rejects_a_cycle_won_by_the_opponent():
    # node 0 (player 0, priority 2) and node 1 (player 1, priority 3) form
    # the only cycle; its top priority is odd, so player 1 wins both nodes
    game = {0: (0, 2, (1,)), 1: (1, 3, (0,))}
    assert checker.check_winners(game, set(), {0, 1}, {}, {1: 0}) is None
    error = checker.check_winners(game, {0, 1}, set(), {0: 1}, {})
    assert error is not None and "losing cycle" in error


def run_traced(trace: tracer.Tracer, argv: list[str]) -> dict:
    trace.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        trace.uninstall()
    return tracer.layer_metrics([trace.take_job()], trace.missing)


def test_tracer_counts_a_ladder_solve_and_restores_the_program():
    original = cli.run_ssi
    metrics = run_traced(tracer.Tracer(), ["solve", "--algo", "ssi", "--family", "table1", "--n", "3"])
    assert cli.run_ssi is original
    assert not [name for name, entry in metrics.items() if entry.get("missing")]
    assert metrics["solvers.iterations"]["value"] == 2 ** 4 - 3
    assert metrics["solvers.run.calls"]["value"] == 1
    assert metrics["families.generate.total_s"]["value"] > 0
    assert metrics["cli.main.self_s"]["value"] > 0


def test_tracer_reports_a_vanished_name_as_missing():
    points = tuple(
        dataclasses.replace(p, attr="counter_choices_gone") if p.span == "valuation.counter_choices" else p
        for p in tracer.POINTS
    )
    metrics = run_traced(tracer.Tracer(points), ["solve", "--algo", "ssi", "--family", "table1", "--n", "3"])
    for name in ("valuation.counter_choices.calls", "valuation.counter_choices.total_s"):
        assert metrics[name] == {"value": None, "unit": metrics[name]["unit"], "missing": True}
    assert metrics["solvers.iterations"]["value"] == 13
