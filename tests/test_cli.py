"""End-to-end command-line behavior and exit codes."""

import random

import pytest

from conftest import random_parity_game
from sinkgames import traces
from sinkgames.cli import main
from sinkgames.families import gen_table1
from sinkgames.oracle import brute_force_winners
from sinkgames.pgsolver import parse_pgsolver, write_pgsolver
from sinkgames.playvalues import ValueCodec
from sinkgames.reduction import solve_winners
from sinkgames.traces import from_csv, from_json, parse_strategy_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
