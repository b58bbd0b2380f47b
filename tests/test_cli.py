"""End-to-end command-line behavior and exit codes."""

import contextlib
import gc
import hashlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_parity_game, random_sink_game
from oracle_reference import brute_force_winners
from sinkgames import cli, families, traces
from sinkgames import pgsolver as pgsolver_module
from sinkgames import reduction as reduction_module
from sinkgames import valuation as valuation_module
from sinkgames.cli import main
from sinkgames.families import gen_table1
from sinkgames.game import ParityGame
from sinkgames.pgsolver import MAX_DIGITS, parse_pgsolver, write_pgsolver
from sinkgames.playvalues import ValueCodec
from sinkgames.reduction import reduce_game, solve_winners
from sinkgames.solvers import SolverInvariantError
from sinkgames.traces import from_csv, from_json, parse_strategy_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _ladder_files(tmp_path):
    """The ``table1`` n=3 game and its start strategies, written to files."""
    inst = gen_table1(3)
    files = {"game": tmp_path / "g.pg", "sigma0": tmp_path / "s0", "tau0": tmp_path / "t0"}
    files["game"].write_text(write_pgsolver(inst.game))
    files["sigma0"].write_text(traces.write_strategy_text(inst.sigma0))
    files["tau0"].write_text(traces.write_strategy_text(inst.tau0))
    return files


class TestGenerate:
    def test_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "table1", "--n", "1")
        assert code == 0
        game = parse_pgsolver(out)
        assert game == gen_table1(1).game

    def test_to_files_with_strategies(self, tmp_path, capsys):
        game_file = tmp_path / "ladder.pg"
        s_file = tmp_path / "ladder.sigma0"
        t_file = tmp_path / "ladder.tau0"
        code, _, _ = run_cli(
            capsys, "generate", "table2", "--n", "2",
            "--out", str(game_file),
            "--sigma0-out", str(s_file), "--tau0-out", str(t_file),
        )
        assert code == 0
        game = parse_pgsolver(game_file.read_text())
        sigma = parse_strategy_text(s_file.read_text(), game)
        tau = parse_strategy_text(t_file.read_text(), game)
        assert sigma.player == 0 and tau.player == 1

    def test_bad_n_is_an_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "table1", "--n", "0")
        assert code == 2


class TestSolve:
    def test_switch_onto_a_cycle_its_player_wins_is_an_input_error(self, tmp_path, capsys):
        # the start is admissible, but node 1's improving move to node 0
        # closes a cycle of top priority 30 that player 0 keeps from the sink
        game = tmp_path / "g.pg"
        game.write_text(
            'parity 5;\n0 30 0 1,4 "a1";\n1 5 0 0,2,5 "a2";\n2 1 0 2 "a3";\n'
            '3 4 1 1,4 "d1";\n4 6 1 3,2,5 "d2";\n5 8 1 2 "d3";\n'
        )
        sigma0 = tmp_path / "s.txt"
        sigma0.write_text("0 1\n1 2\n2 2\n")
        code, _, err = run_cli(
            capsys, "solve", "--algo", "si", "--game", str(game), "--sigma0", str(sigma0)
        )
        assert code == 2
        assert err.startswith("error: not a sink game: after improving switches player 0")

    def test_family_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "ssi", "--rule", "all",
            "--family", "table1", "--n", "3",
        )
        assert code == 0
        assert "iterations: 13" in out
        assert "certificate: verified" in out

    def test_game_file_with_injected_strategies(self, tmp_path, capsys):
        inst = gen_table1(2)
        game_file = tmp_path / "g.pg"
        game_file.write_text(write_pgsolver(inst.game))
        s_file = tmp_path / "s.txt"
        t_file = tmp_path / "t.txt"
        from sinkgames.traces import write_strategy_text

        s_file.write_text(write_strategy_text(inst.sigma0))
        t_file.write_text(write_strategy_text(inst.tau0))
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "ssi",
            "--game", str(game_file),
            "--sigma0", str(s_file), "--tau0", str(t_file),
        )
        assert code == 0
        assert "iterations: 5" in out

    def test_start_strategy_files_with_crlf_line_ends(self, tmp_path, capsys):
        inst = gen_table1(2)
        game_file, s_file, t_file = tmp_path / "g.pg", tmp_path / "s.txt", tmp_path / "t.txt"
        game_file.write_text(write_pgsolver(inst.game))
        s_file.write_bytes(traces.write_strategy_text(inst.sigma0).replace("\n", "\r\n").encode())
        t_file.write_bytes(traces.write_strategy_text(inst.tau0).replace("\n", "\r\n").encode())
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "ssi",
            "--game", str(game_file),
            "--sigma0", str(s_file), "--tau0", str(t_file),
        )
        assert code == 0
        assert "iterations: 5" in out

    def test_trace_formats_agree(self, tmp_path, capsys):
        csv_file = tmp_path / "run.csv"
        json_file = tmp_path / "run.json"
        for trace_file in (csv_file, json_file):
            code, _, _ = run_cli(
                capsys, "solve", "--algo", "ssi", "--family", "table1", "--n", "3",
                "--trace", str(trace_file),
            )
            assert code == 0
        csv_trace = from_csv(csv_file.read_text())
        json_trace = from_json(json_file.read_text())
        assert csv_trace.rows == json_trace.rows
        assert csv_trace.iterations == json_trace.iterations == 13

    def test_traced_run_is_certified_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        verify = traces.verify_optimal

        def counted(*args):
            calls.append(args)
            return verify(*args)

        monkeypatch.setattr(traces, "verify_optimal", counted)
        trace_file = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "ssi", "--family", "table1", "--n", "3",
            "--trace", str(trace_file),
        )
        assert code == 0
        assert len(calls) == 1
        assert "certificate: verified" in out
        assert from_csv(trace_file.read_text()).certificate == "verified"

    def test_final_strategy_files(self, tmp_path, capsys):
        out_file = tmp_path / "sigma.txt"
        code, _, _ = run_cli(
            capsys, "solve", "--algo", "si", "--family", "table1", "--n", "2",
            "--sigma-out", str(out_file),
        )
        assert code == 0
        inst = gen_table1(2)
        final = parse_strategy_text(out_file.read_text(), inst.game)
        from sinkgames.families import optimal_table1

        assert final.choice == optimal_table1(2)[0].choice

    def test_player1_side(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "si", "--family", "table1", "--n", "2",
            "--player", "1",
        )
        assert code == 0
        assert "tau:" in out and "sigma:" not in out

    def test_game_and_family_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--algo", "ssi", "--family", "table1", "--n", "2",
            "--game", "whatever.pg",
        )
        assert code == 2
        assert "exactly one" in err

    def test_unreadable_game_file(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--algo", "si", "--game", "/nonexistent.pg")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--algo", "si", "--nope")
        assert code == 2

    def test_player_flag_limited_to_si(self, capsys):
        code, _, _ = run_cli(
            capsys, "solve", "--algo", "ssi", "--family", "table1", "--n", "1",
            "--player", "1",
        )
        assert code == 2

    def test_random_rule_deterministic(self, tmp_path, capsys):
        outputs = []
        for run in range(2):
            trace_file = tmp_path / f"r{run}.json"
            code, _, _ = run_cli(
                capsys, "solve", "--algo", "ssi", "--family", "table1", "--n", "3",
                "--rule", "random", "--seed", "11", "--trace", str(trace_file),
            )
            assert code == 0
            outputs.append(trace_file.read_text())
        assert outputs[0] == outputs[1]


    # player 0's sink-seeking default walks 1 -> 2, where player 1 loops
    # 2 -> 1 -> 2 through the odd top priority 3
    NO_DEFAULT_SIGMA = "parity 4;\n0 1 0 0;\n1 2 0 2,3;\n2 3 1 0,1;\n3 4 1 4;\n4 6 0 0;\n"

    @pytest.mark.parametrize(
        "flags",
        [("--algo", "ssi", "--sigma0", "{sigma0}"), ("--algo", "si", "--player", "1")],
        ids=["given-sigma0", "si-player1"],
    )
    def test_default_only_for_a_needed_missing_strategy(self, tmp_path, capsys, flags):
        game_file = tmp_path / "g.pg"
        game_file.write_text(self.NO_DEFAULT_SIGMA)
        sigma_file = tmp_path / "sigma0.txt"
        sigma_file.write_text("0 0\n1 3\n4 0\n")
        flags = [f.format(sigma0=sigma_file) for f in flags]
        code, out, err = run_cli(capsys, "solve", "--game", str(game_file), *flags)
        assert (code, err) == (0, "")
        assert "certificate: verified" in out

    def test_default_that_is_needed_still_fails(self, tmp_path, capsys):
        game_file = tmp_path / "g.pg"
        game_file.write_text(self.NO_DEFAULT_SIGMA)
        code, _, err = run_cli(capsys, "solve", "--algo", "si", "--game", str(game_file))
        assert code == 2
        assert "provide one with --sigma0" in err

    def test_bad_trace_name_is_rejected_before_solving(self, tmp_path, capsys):
        sigma_out, tau_out = tmp_path / "sigma.txt", tmp_path / "tau.txt"
        code, out, err = run_cli(
            capsys, "solve", "--algo", "ssi", "--family", "table1", "--n", "3",
            "--trace", str(tmp_path / "run.txt"),
            "--sigma-out", str(sigma_out), "--tau-out", str(tau_out),
        )
        assert code == 2
        assert out == ""
        assert err == "error: --trace file must end in .csv or .json\n"
        assert list(tmp_path.iterdir()) == []

    def test_newline_in_game_name_is_rejected_before_a_csv_trace(self, tmp_path, capsys):
        game_file = tmp_path / "a\nb.pg"
        game_file.write_text(write_pgsolver(gen_table1(2).game))
        outputs = [
            "--sigma-out", str(tmp_path / "sigma.txt"), "--tau-out", str(tmp_path / "tau.txt"),
        ]
        code, out, err = run_cli(
            capsys, "solve", "--algo", "ssi", "--game", str(game_file),
            "--trace", str(tmp_path / "run.csv"), *outputs,
        )
        assert code == 2
        assert out == ""
        assert err == "error: a CSV trace cannot hold the game id 'a\\nb.pg', which has a newline\n"
        assert list(tmp_path.iterdir()) == [game_file]
        # a JSON trace holds the name
        json_trace = tmp_path / "run.json"
        code, _, err = run_cli(
            capsys, "solve", "--algo", "ssi", "--game", str(game_file),
            "--trace", str(json_trace), *outputs,
        )
        assert (code, err) == (0, "")
        assert from_json(json_trace.read_text()).header.game_id == "a\nb.pg"

    @pytest.mark.parametrize(
        "algo, what", [("ssi", "initial player 0 strategy"), ("si", "initial strategy")]
    )
    def test_inadmissible_start_file_is_refused(self, tmp_path, capsys, algo, what):
        # under 1 -> 2 player 1 keeps the pebble on 1 <-> 2, whose top
        # priority 3 is odd
        game_file, sigma_file = tmp_path / "g.pg", tmp_path / "sigma0.txt"
        game_file.write_text(self.NO_DEFAULT_SIGMA)
        sigma_file.write_text("0 0\n1 2\n4 0\n")
        code, out, err = run_cli(
            capsys, "solve", "--algo", algo, "--game", str(game_file), "--sigma0", str(sigma_file)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: the {what} is not admissible: valuation fixpoint did not stabilize\n"

    @pytest.mark.parametrize(
        "flag, side", [("--sigma0", []), ("--tau0", ["--player", "1"])]
    )
    def test_malformed_start_strategy_file(self, tmp_path, capsys, flag, side):
        game_file, bad = tmp_path / "g.pg", tmp_path / "bad.txt"
        game_file.write_text(write_pgsolver(gen_table1(2).game))
        bad.write_text("1 9\n")
        code, out, err = run_cli(
            capsys, "solve", "--algo", "si", *side, "--game", str(game_file), flag, str(bad)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} file is invalid: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line", ["0 \u0661", "2 \u00b2"], ids=["arabic-indic", "superscript"])
    def test_start_strategy_needs_ascii_digits(self, tmp_path, capsys, line):
        game_file, bad = tmp_path / "g.pg", tmp_path / "bad.txt"
        game_file.write_text(write_pgsolver(gen_table1(2).game))
        bad.write_text(f"1 2\n{line}\n")
        code, out, err = run_cli(
            capsys, "solve", "--algo", "si", "--game", str(game_file), "--sigma0", str(bad)
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: --sigma0 file is invalid: strategy line 2 must be '<node-id> <successor-id>'\n"
        )

    @pytest.mark.parametrize(
        "text, lineno",
        [("0 1\n1\xa01\n", 2), ("0 1\x0c1 1", 1), ("0 1\r1 1", 1)],
        ids=["no-break-space", "form-feed", "lone-carriage-return"],
    )
    def test_start_strategy_tokens_split_on_space_and_tab_only(self, tmp_path, capsys, text, lineno):
        game_file, bad = tmp_path / "g.pg", tmp_path / "bad.txt"
        game_file.write_text(write_pgsolver(gen_table1(1).game))
        bad.write_bytes(text.encode())
        code, out, err = run_cli(
            capsys, "solve", "--algo", "si", "--game", str(game_file), "--sigma0", str(bad)
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --sigma0 file is invalid: strategy line {lineno} "
            "must be '<node-id> <successor-id>'\n"
        )

    @pytest.mark.parametrize(
        "side, flag, player",
        [(["--player", "1"], "--sigma-out", 0), ([], "--tau-out", 1)],
    )
    def test_missing_output_strategy_is_rejected_before_solving(
        self, tmp_path, capsys, side, flag, player
    ):
        sigma_out, tau_out = tmp_path / "sigma.txt", tmp_path / "tau.txt"
        code, out, err = run_cli(
            capsys, "solve", "--algo", "si", *side, "--family", "table1", "--n", "3",
            "--sigma-out", str(sigma_out), "--tau-out", str(tau_out),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: run produced no player {player} strategy for {flag}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--algo", "si", "--game", "{game}", "--tau0", "{tau0}"),
             "run takes no player 1 start strategy for --tau0"),
            (("--algo", "si", "--player", "1", "--game", "{game}", "--sigma0", "{sigma0}"),
             "run takes no player 0 start strategy for --sigma0"),
            (("--algo", "ssi", "--game", "{game}", "--n", "7"), "--n only applies to --family"),
        ],
        ids=["si-tau0", "si-player1-sigma0", "n-with-game"],
    )
    def test_unused_input_is_refused(self, tmp_path, capsys, flags, message):
        files = _ladder_files(tmp_path)
        code, out, err = run_cli(capsys, "solve", *(f.format(**files) for f in flags))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_game_file_that_is_not_a_sink_game_is_refused(self, tmp_path, capsys):
        # node 0 has priority 0 but leaves itself, so no node is the sink
        game_file = tmp_path / "g.pg"
        game_file.write_text("0 0 0 0,1;\n1 3 0 0;\n")
        code, out, err = run_cli(capsys, "solve", "--algo", "si", "--game", str(game_file))
        assert (code, out, err) == (2, "", "error: [sink-missing] game: no sink node designated\n")

    def test_family_without_n_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--algo", "ssi", "--family", "table1")
        assert (code, out, err) == (2, "", "error: --family needs --n\n")

    def test_sigma0_file_of_player_1_nodes_is_refused(self, tmp_path, capsys):
        files = _ladder_files(tmp_path)
        code, out, err = run_cli(
            capsys, "solve", "--algo", "si", "--game", str(files["game"]),
            "--sigma0", str(files["tau0"]),
        )
        assert (code, out, err) == (2, "", "error: --sigma0 file describes a player 1 strategy\n")

    @pytest.mark.parametrize("flag", ["--sigma-out", "--tau-out", "--trace"])
    def test_output_path_that_cannot_be_opened_is_an_input_error(self, tmp_path, capsys, flag):
        files = _ladder_files(tmp_path)
        target = tmp_path / "no-such-dir" / "out.csv"
        code, out, err = run_cli(
            capsys, "solve", "--algo", "ssi", "--game", str(files["game"]), flag, str(target)
        )
        assert code == 2
        assert "certificate: verified" in out
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1


def _loose_sink_game(rng):
    """A sink game whose nodes need not reach the sink, so that a default
    start can fail at either greedy."""
    n = rng.randint(4, 10)
    # owner, then priority, node by node: the draw order fixes the digest below
    drawn = [(0, 0)] + [(rng.randint(0, 1), rng.randint(1, 2 * n)) for _ in range(1, n)]
    owners, priorities = zip(*drawn)
    successors = [(0,)] + [rng.sample(range(n), rng.randint(1, 3)) for _ in range(1, n)]
    return ParityGame(range(n), owners, priorities, [None] * n, successors, sink=0)


def _relabelled(game):
    """The game with each id v moved to 3v + 5, which keeps the id order."""
    relabel = {v: 3 * v + 5 for v in game.node_ids}
    ids, owners, priorities, labels, successors = game.columns()
    return ParityGame(
        [relabel[v] for v in ids], owners, priorities, labels,
        [[relabel[w] for w in succs] for succs in successors], relabel.get(game.sink),
    )


class TestDefaultStarts:
    def test_default_starts_match_recorded_digest(self):
        # reductions, sink games whose nodes all exit to the sink, and sink
        # games whose nodes need not reach it, each also with gapped ids;
        # the digest was recorded when the sink distances were still kept
        # on the game index
        rng = random.Random(229)
        rows = []
        for i in range(40):
            if i % 3 == 0:
                game, _ = reduce_game(random_parity_game(rng, min_nodes=8, max_nodes=24))
            elif i % 3 == 1:
                game = random_sink_game(rng, max_nodes=10)
            else:
                game = _loose_sink_game(rng)
            for g in (game, _relabelled(game)):
                columns = g.columns()
                for p in (0, 1):
                    try:
                        rows.append(sorted(cli._default_strategy(g, p).choice.items()))
                    except cli.InputError as exc:
                        rows.append(str(exc))
                # the default starts read the game's own lists and change none
                assert g.columns() == columns
        assert sum(isinstance(row, str) for row in rows) == 36
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "bc2b7c37af17d73678e144819f452c21b7521f87a2bd1baacfac43eab4a54a4f"

    @pytest.mark.parametrize(
        "flags, before",
        [
            (("--algo", "ssi", "--game", "{game}"), 2),
            (("--algo", "si", "--game", "{game}"), 1),
            (("--algo", "ssi", "--family", "table1", "--n", "3"), 0),
            (("--algo", "si", "--game", "{game}", "--sigma0", "{sigma0}"), 0),
            (("--algo", "ssi", "--game", "{game}", "--sigma0", "{sigma0}", "--tau0", "{tau0}"), 0),
            (("--algo", "si", "--family", "table1", "--n", "3"), 0),
        ],
        ids=["ssi-defaults", "si-default", "ssi-family", "si-file", "ssi-files", "si-family"],
    )
    def test_each_start_is_valued_once_before_the_run(
        self, tmp_path, capsys, monkeypatch, flags, before
    ):
        # only a default start is valued before the run, by is_admissible:
        # the run's own first valuation is the check of a start read from a
        # file, and a family's start is admissible by construction. Nothing
        # is valued after the run: the pair check accepts the final
        # strategies, or an si run's and its best response, from their plays
        calls = []
        solve = valuation_module.solve_values

        def counted(*args):
            calls.append(args)
            return solve(*args)

        runs = []

        def recorded(real):
            def run(*args):
                runs.append(len(calls))
                return real(*args)
            return run

        monkeypatch.setattr(valuation_module, "solve_values", counted)
        monkeypatch.setattr(cli, "run_ssi", recorded(cli.run_ssi))
        monkeypatch.setattr(cli, "run_si", recorded(cli.run_si))
        files = _ladder_files(tmp_path)
        code, out, err = run_cli(capsys, "solve", *(f.format(**files) for f in flags))
        assert (code, err) == (0, "")
        assert runs == [before]
        assert len(calls) == before


class TestReduce:
    def test_output_parses_and_solves(self, tmp_path, capsys):
        rng = random.Random(127)
        source = random_parity_game(rng)
        game_file = tmp_path / "in.pg"
        game_file.write_text(write_pgsolver(source))
        out_file = tmp_path / "out.pg"
        code, _, _ = run_cli(capsys, "reduce", "--game", str(game_file), "--out", str(out_file))
        assert code == 0
        reduced = parse_pgsolver(out_file.read_text())
        assert reduced.sink is not None
        code, out, _ = run_cli(capsys, "solve", "--algo", "ssi", "--game", str(out_file))
        assert code == 0
        assert "certificate: verified" in out


@pytest.mark.parametrize("command", ["reduce", "winners"])
@pytest.mark.parametrize("text", ["0 \u00b2 0 0;", "\u0663 2 0 0;"])
def test_non_ascii_digit_is_an_input_error(tmp_path, capsys, command, text):
    game_file = tmp_path / "in.pg"
    game_file.write_text(text, encoding="utf-8")
    extra = ["--out", str(tmp_path / "out.pg")] if command == "reduce" else []
    code, _, err = run_cli(capsys, command, "--game", str(game_file), *extra)
    assert code == 2
    assert "unexpected character" in err


LONG = "1" * (MAX_DIGITS + 701)


@pytest.mark.parametrize(
    "text, where",
    [
        (f"parity 1;\n0 1{LONG} 0 1;\n1 3 1 0;\n", "line 2, column 3"),
        (f"parity 1;\n0 1 0 1,{LONG};\n1 3 1 0;\n", "line 2, column 9"),
        (f"parity {LONG};\n0 1 0 0;\n", "line 1, column 8"),
    ],
    ids=["priority", "successor", "header"],
)
@pytest.mark.parametrize("command", ["reduce", "winners"])
def test_long_number_in_a_game_is_an_input_error(tmp_path, capsys, command, text, where):
    game_file = tmp_path / "in.pg"
    game_file.write_text(text)
    extra = ["--out", str(tmp_path / "out.pg")] if command == "reduce" else []
    code, out, err = run_cli(capsys, command, "--game", str(game_file), *extra)
    assert (code, out) == (2, "")
    assert err == f"error: number has more than 4300 digits ({where})\n"


def test_long_number_in_a_start_strategy_is_an_input_error(tmp_path, capsys):
    game_file, bad = tmp_path / "g.pg", tmp_path / "bad.txt"
    game_file.write_text(write_pgsolver(gen_table1(2).game))
    bad.write_text(f"1 2\n{LONG} 0\n")
    code, out, err = run_cli(
        capsys, "solve", "--algo", "si", "--game", str(game_file), "--sigma0", str(bad)
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: --sigma0 file is invalid: strategy line 2 has a number of more than 4300 digits\n"
    )


def test_reduced_ids_past_the_cap_are_an_input_error(tmp_path, capsys):
    # the reduction numbers its new nodes after the largest id, which here
    # has the most digits a file may hold
    top = "9" * MAX_DIGITS
    game_file, out_file = tmp_path / "in.pg", tmp_path / "out.pg"
    game_file.write_text(f"{top} 1 0 {top};\n")
    code, out, err = run_cli(capsys, "reduce", "--game", str(game_file), "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == (
        "error: cannot write the reduced game: a node id or priority has more than 4300 digits\n"
    )
    assert not out_file.exists()


def test_a_refused_reduction_leaves_an_existing_out_file_unchanged(tmp_path, capsys):
    # the reduced game would need the 4,301-digit id 10**4300 for its first
    # new node; the refusal comes before the output file is opened
    top = "9" * MAX_DIGITS
    game_file, out_file = tmp_path / "in.pg", tmp_path / "out.pg"
    game_file.write_text(f"{top} 1 0 {top};\n")
    out_file.write_bytes(b"earlier contents\n")
    code, out, err = run_cli(capsys, "reduce", "--game", str(game_file), "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == (
        "error: cannot write the reduced game: a node id or priority has more than 4300 digits\n"
    )
    assert out_file.read_bytes() == b"earlier contents\n"


def _labelled_game(rng: random.Random, n: int) -> ParityGame:
    """A seeded game of ``n`` nodes with gaps in its ids and some labels."""
    _, owners, priorities, _, successors = random_parity_game(rng, n, n).columns()
    ids = [3 * v + rng.randint(0, 2) for v in range(n)]
    labels = [rng.choice([None, "", f"node {v};"]) for v in range(n)]
    successors = [[ids[w] for w in row] for row in successors]
    return ParityGame(ids, owners, priorities, labels, successors)


def _shuffled_text(game: ParityGame, rng: random.Random) -> str:
    """The PGSolver text of ``game`` with its node statements in random
    id order."""
    head, *lines = write_pgsolver(game).splitlines(keepends=True)
    rng.shuffle(lines)
    return head + "".join(lines)


class TestStreamedOutput:
    """The commands write a game's text line by line as it is made; the
    written bytes are those of ``write_pgsolver``."""

    @pytest.mark.parametrize("seed, n", [(1, 50), (2, 333), (3, 2000)])
    def test_reduce_writes_the_text_of_the_reduced_game(self, tmp_path, capsys, seed, n):
        rng = random.Random(seed)
        text = _shuffled_text(_labelled_game(rng, n), rng)
        game_file, out_file = tmp_path / "in.pg", tmp_path / "out.pg"
        game_file.write_text(text)
        code, out, err = run_cli(capsys, "reduce", "--game", str(game_file), "--out", str(out_file))
        assert (code, out, err) == (0, "", "")
        expected = write_pgsolver(reduce_game(parse_pgsolver(text))[0])
        assert out_file.read_bytes() == expected.encode()

    @pytest.mark.parametrize("family, n", [("table1", 1), ("table1", 9), ("table2", 6)])
    def test_generate_writes_the_text_of_the_family_game(self, tmp_path, capsys, family, n):
        expected = write_pgsolver(families.generate(family, n).game)
        code, out, err = run_cli(capsys, "generate", family, "--n", str(n))
        assert (code, out, err) == (0, expected, "")
        out_file = tmp_path / "g.pg"
        code, out, err = run_cli(capsys, "generate", family, "--n", str(n), "--out", str(out_file))
        assert (code, out, err) == (0, "", "")
        assert out_file.read_bytes() == expected.encode()


def test_reduce_peak_memory_is_within_a_bound_of_the_reduced_game(tmp_path):
    """Under tracemalloc, ``reduce`` on a seeded 5,000-node game peaks at no
    more than 2.1 times the size of the reduced game alone: the parsed game
    is freed once its columns are copied, the reduction map is not kept,
    and the output is written as it is made."""
    game_file, out_file = tmp_path / "in.pg", tmp_path / "out.pg"
    game_file.write_text(write_pgsolver(random_parity_game(random.Random(5000), 5000, 5000)))
    text = game_file.read_text()
    argv = ["reduce", "--game", str(game_file), "--out", str(out_file)]
    main(argv)  # fills the caches of a first call, such as the shared parser
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reduced = reduce_game(parse_pgsolver(text))[0]
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - base
        del reduced
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * size, (peak, size)


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    game_file = tmp_path / "in.pg"
    game_file.write_bytes(b"0 1 0 0;\xff\n")
    code, _, err = run_cli(capsys, "winners", "--game", str(game_file))
    assert code == 2
    assert "cannot read" in err


class TestWinners:
    def test_matches_brute_force(self, tmp_path, capsys):
        rng = random.Random(131)
        for _ in range(10):
            game = random_parity_game(rng)
            game_file = tmp_path / "w.pg"
            game_file.write_text(write_pgsolver(game))
            code, out, _ = run_cli(capsys, "winners", "--game", str(game_file))
            assert code == 0
            lines = out.strip().splitlines()
            w0 = frozenset(int(x) for x in lines[0].split(":")[1].split())
            w1 = frozenset(int(x) for x in lines[1].split(":")[1].split())
            assert (w0, w1) == brute_force_winners(game)

    def test_output_matches_recorded_digest(self, tmp_path, capsys):
        # stdout and both strategy files, on games whose index borrows the
        # game's successor rows (dense ids, distinct int successors) and on
        # games it maps: gapped ids and a repeated edge; and on rows listed
        # out of id order. The digest was recorded before the index borrowed
        # any rows and before the report was written in one call
        rng = random.Random(233)
        games = [random_parity_game(rng, 100, 100) for _ in range(8)]
        games += [_relabelled(game) for game in games]
        ids, owners, priorities, labels, rows = random_parity_game(rng, 30, 30).columns()
        games.append(ParityGame(ids, owners, priorities, labels, [row + row[:1] for row in rows]))
        ids, owners, priorities, labels, rows = random_parity_game(rng, 30, 30).columns()
        rows = [sorted(row, reverse=True) for row in rows]
        assert any(len(row) > 1 for row in rows)
        games.append(ParityGame(ids, owners, priorities, labels, rows))
        digest = hashlib.sha256()
        for i, game in enumerate(games):
            files = [tmp_path / f"g{i}.pg", tmp_path / f"s{i}", tmp_path / f"t{i}"]
            files[0].write_text(write_pgsolver(game))
            code, out, err = run_cli(
                capsys, "winners", "--game", str(files[0]),
                "--sigma-out", str(files[1]), "--tau-out", str(files[2]),
            )
            assert (code, err) == (0, "")
            digest.update(out.encode())
            for path in files[1:]:
                digest.update(path.read_bytes())
        assert digest.hexdigest() == "a52d285fd8ff1021b1fe980106709faed69be6dcd7c4d49bbfdfabdbb4aa1a0d"

    def test_strategy_files_written(self, tmp_path, capsys):
        game_file = tmp_path / "w.pg"
        game_file.write_text("0 2 0 1; 1 3 1 0;")
        s_file = tmp_path / "w0.txt"
        t_file = tmp_path / "w1.txt"
        code, _, _ = run_cli(
            capsys, "winners", "--game", str(game_file),
            "--sigma-out", str(s_file), "--tau-out", str(t_file),
        )
        assert code == 0
        assert s_file.exists() and t_file.exists()


class TestDecodeFree:
    """Values stay encoded on every path whose output needs no PlayValue."""

    def test_winners_and_traced_solve_never_decode(self, tmp_path, capsys, monkeypatch):
        def refuse(self, code):
            raise AssertionError("a play value was decoded")

        monkeypatch.setattr(ValueCodec, "decode", refuse)
        game = random_parity_game(random.Random(157), min_nodes=20, max_nodes=30)
        result = solve_winners(game)
        assert result.w0 | result.w1 == frozenset(game.node_ids)
        trace = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "ssi", "--family", "table1", "--n", "4",
            "--trace", str(trace),
        )
        assert code == 0
        assert "certificate: verified" in out
        assert from_csv(trace.read_text()).certificate == "verified"


class TestExperiment:
    def test_iteration_table_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "iteration-table",
            "--family", "table1", "--algo", "ssi", "--n-max", "5",
        )
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert [int(r[2]) for r in rows] == [1, 5, 13, 29, 61]
        assert all(r[3] == "yes" for r in rows)

    def test_gadget_family_expectations(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "iteration-table",
            "--family", "table2", "--algo", "gssi", "--n-max", "4",
        )
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert [int(r[2]) for r in rows] == [2, 9, 23, 51]
        assert all(r[3] == "yes" for r in rows)

    def test_no_closed_form_prints_dashes(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "iteration-table",
            "--family", "table1", "--algo", "gssi", "--n-max", "3",
        )
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert all(r[2] == "-" and r[3] == "-" for r in rows)


SOLVE_LADDER = ("solve", "--algo", "ssi", "--family", "table1", "--n", "3")
FAILURES = {
    "usage-error": (("solve", "--nope"), 2),
    "bad-value": (("generate", "table1", "--n", "0"), 2),
    "input-error": (("solve", "--algo", "si", "--game", "/nonexistent.pg"), 2),
}


class TestRepeatedCalls:
    """``main`` called many times in one process, as a library caller does."""

    def test_two_calls_build_one_parser(self, capsys):
        cli.build_parser.cache_clear()
        run_cli(capsys, "--help")
        run_cli(capsys, *SOLVE_LADDER)
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_import_builds_no_parser(self):
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import sinkgames.cli as c; print(c.build_parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout) == (0, "0\n")

    @pytest.mark.parametrize(
        "argv, code",
        [(("--help",), 0), *FAILURES.values(), (SOLVE_LADDER, 0)],
        ids=["help", *FAILURES, "solve"],
    )
    def test_second_call_repeats_the_first(self, capsys, argv, code):
        first = run_cli(capsys, *argv)
        assert first[0] == code
        assert first[1] or first[2]
        assert run_cli(capsys, *argv) == first

    def test_a_failed_call_leaves_the_next_unchanged(self, capsys):
        expected = run_cli(capsys, *SOLVE_LADDER)
        assert expected[0] == 0
        for argv, code in FAILURES.values():
            assert run_cli(capsys, *argv)[0] == code
            assert run_cli(capsys, *SOLVE_LADDER) == expected


def _fail(error):
    def solve_winners(game):
        raise error

    return solve_winners


class TestCollectorPause:
    """``main`` pauses the cyclic garbage collector for one command, and the
    pause is safe because no command makes a reference cycle."""

    # game file, exit code (None when the error escapes), error raised by
    # solve_winners, and the start of stderr
    PATHS = {
        "exit-0": ("ok", 0, None, ""),
        "input-error": ("missing", 2, None, "error: cannot read"),
        "parse-error": ("malformed", 2, None, "error: statement is missing its terminating ';'"),
        "exit-3": ("ok", 3, SolverInvariantError("broken"), "internal error: broken"),
        "usage-exit": ("ok", 2, None, "usage:"),
        "escaping-exception": ("ok", None, RuntimeError("boom"), ""),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("path", PATHS)
    def test_state_is_restored(self, tmp_path, capsys, monkeypatch, path, enabled):
        game, code, error, err_start = self.PATHS[path]
        (tmp_path / "ok.pg").write_text(write_pgsolver(gen_table1(1).game))
        (tmp_path / "malformed.pg").write_text("parity 1;\n0 0 0 0\n")
        if error is not None:
            monkeypatch.setattr(reduction_module, "solve_winners", _fail(error))
        argv = ["winners", "--game", str(tmp_path / f"{game}.pg")]
        if path == "usage-exit":
            argv.append("--nope")
        (gc.enable if enabled else gc.disable)()
        try:
            if code is None:
                with pytest.raises(RuntimeError, match="boom"):
                    main(argv)
            else:
                assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert capsys.readouterr().err.startswith(err_start)

    def test_collector_is_off_in_the_handler(self, tmp_path, capsys, monkeypatch):
        game_file = tmp_path / "g.pg"
        game_file.write_text(write_pgsolver(gen_table1(1).game))
        states = []

        def parse(text):
            states.append(gc.isenabled())
            return parse_pgsolver(text)

        monkeypatch.setattr(pgsolver_module, "parse_pgsolver", parse)
        assert gc.isenabled()
        assert run_cli(capsys, "winners", "--game", str(game_file))[0] == 0
        assert states == [False]
        assert gc.isenabled()

    COMMANDS = {
        "generate-file": "generate table1 --n 3 --out {tmp}/o.pg --sigma0-out {tmp}/s --tau0-out {tmp}/t",
        "generate-stdout": "generate table2 --n 3",
        **{
            f"solve-{algo}-{starts}-{fmt}": f"solve --algo {algo} {flags} --trace {{tmp}}/t.{fmt}"
            for algo in ("si", "ssi", "gssi")
            for starts, flags in (
                ("family", "--family table1 --n 3"),
                ("default", "--game {game}"),
            )
            for fmt in ("csv", "json")
        },
        "reduce": "reduce --game {game} --out {tmp}/out.pg",
        "winners": "winners --game {game} --sigma-out {tmp}/s --tau-out {tmp}/t",
        "iteration-table": "experiment iteration-table --family table2 --algo gssi --n-max 3",
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_makes_no_reference_cycle(self, tmp_path, capsys, command):
        # error paths are left out: a traceback may close a cycle, which the
        # first collection after the command frees
        game = _ladder_files(tmp_path)["game"]
        argv = self.COMMANDS[command].format(tmp=tmp_path, game=game).split()
        cli.build_parser()  # argparse's help formatters make cycles, once
        gc.disable()
        try:
            gc.collect()
            code = main(argv)
            unreachable = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert (code, unreachable) == (0, 0)


LADDER = gen_table1(2)
BASE_FILES = {
    "game": write_pgsolver(LADDER.game).encode(),
    "sigma0": traces.write_strategy_text(LADDER.sigma0).encode(),
    "tau0": traces.write_strategy_text(LADDER.tau0).encode(),
}
INSERTS = st.one_of(
    st.sampled_from([b"\x00", b"\r", b"\xff", b"\xc3", b"\x80", b";", b",", b" "]),
    st.builds(
        lambda digit, length: digit * length,
        st.sampled_from([b"0", b"1", b"9"]),
        st.sampled_from([1, 2, 40, MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1]),
    ),
)


@st.composite
def mutated_files(draw) -> tuple[str, dict[str, bytes]]:
    """A command and its input files, one of them mutated by one to three
    inserts (long digit runs, NUL, non-UTF-8 bytes, lone CRs, separators)
    or deletions."""
    command = draw(st.sampled_from(["reduce", "winners", "solve si", "solve ssi", "solve gssi"]))
    files = dict(BASE_FILES)
    name = draw(st.sampled_from(["game", "sigma0", "tau0"] if command == "solve ssi" else ["game"]))
    data = files[name]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        if draw(st.booleans()):
            data = data[:at] + draw(INSERTS) + data[at:]
        else:
            data = data[:at] + data[at + 1:]
    files[name] = data
    return command, files


class TestEveryInputEndsInZeroOrTwo:
    """Mutated game and strategy files: every ``reduce``, ``winners`` and
    ``solve`` call returns 0 or 2, and on 2 says why without a traceback."""

    @settings(max_examples=120, deadline=None)
    @given(mutated_files())
    def test_mutated_inputs(self, tmp_path_factory, case):
        command, files = case
        work = tmp_path_factory.mktemp("cli-fuzz")
        for name, data in files.items():
            (work / name).write_bytes(data)
        verb, *algo = command.split()
        argv = [verb, "--game", str(work / "game")]
        if verb == "reduce":
            argv += ["--out", str(work / "out.pg")]
        elif verb == "solve":
            argv += ["--algo", *algo, "--sigma0", str(work / "sigma0")]
            if algo != ["si"]:
                argv += ["--tau0", str(work / "tau0")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, files, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()
