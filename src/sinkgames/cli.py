"""Command-line interface: generate, solve, reduce, winners, experiment.

Exit codes: 0 on success, 2 on input errors (bad flags, unreadable or
invalid files, inadmissible starting strategies, a game that a run shows is
not a sink game), 3 on internal invariant violations (a solver run that
breaks its own guarantees).

The cyclic garbage collector is paused while one command runs: no command
makes a reference cycle, so its passes would free nothing (see :func:`main`).
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from collections import deque
from pathlib import Path
from typing import Iterable

from . import families, pgsolver, reduction, traces
from .game import PLAYER0, PLAYER1, ParityGame, Strategy, validate_game
from .rules import make_rule
from .solvers import NotSinkGameError, SolverInvariantError, run_gssi, run_si, run_ssi
from .valuation import GameIndex, NotAdmissibleError, game_index, is_admissible


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _positive(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if number < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return number


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it,
    so that repeated ``main`` calls in one process parse with one parser.

    Sharing is safe because ``parse_args`` returns a fresh namespace and
    argparse looks up ``sys.stdout``, ``sys.stderr`` and the terminal width
    only when it prints. Each subcommand's ``handler`` is bound when the
    parser is built, so replacing a ``cmd_*`` function after the first
    ``main`` call has no effect on later calls.
    """
    parser = argparse.ArgumentParser(
        prog="sinkgames",
        description="Generate, solve, and reduce sink parity games; reproduce "
        "worst-case iteration counts of the symmetric improvement solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a worst-case family instance")
    gen.add_argument("family", choices=("table1", "table2"))
    gen.add_argument("--n", type=_positive, required=True, help="family size parameter")
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.add_argument("--sigma0-out", help="also write the start strategy of player 0")
    gen.add_argument("--tau0-out", help="also write the start strategy of player 1")
    gen.set_defaults(handler=cmd_generate)

    solve = sub.add_parser("solve", help="run an improvement solver on a game")
    solve.add_argument("--algo", choices=("si", "ssi", "gssi"), required=True)
    solve.add_argument("--rule", choices=("all", "single", "random"), default="all")
    solve.add_argument("--seed", type=int, default=None, help="seed for the random rule")
    solve.add_argument("--game", help="PGSolver-format game file")
    solve.add_argument("--family", choices=("table1", "table2"))
    solve.add_argument("--n", type=_positive, help="family size (with --family)")
    solve.add_argument("--sigma0", help="initial player 0 strategy file")
    solve.add_argument("--tau0", help="initial player 1 strategy file")
    solve.add_argument("--player", type=int, choices=(0, 1), default=None,
                       help="which player improves (si only, default 0)")
    solve.add_argument("--trace", help="write the iteration trace (.csv or .json)")
    solve.add_argument("--sigma-out", help="write the final player 0 strategy")
    solve.add_argument("--tau-out", help="write the final player 1 strategy")
    solve.set_defaults(handler=cmd_solve)

    red = sub.add_parser("reduce", help="turn any parity game into a sink game")
    red.add_argument("--game", required=True)
    red.add_argument("--out", required=True)
    red.set_defaults(handler=cmd_reduce)

    win = sub.add_parser("winners", help="winning sets of an arbitrary parity game")
    win.add_argument("--game", required=True)
    win.add_argument("--sigma-out", help="write player 0's winning strategy")
    win.add_argument("--tau-out", help="write player 1's winning strategy")
    win.set_defaults(handler=cmd_winners)

    exp = sub.add_parser("experiment", help="reproduction experiments")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)
    table = exp_sub.add_parser(
        "iteration-table", help="measured vs closed-form iteration counts"
    )
    table.add_argument("--family", choices=("table1", "table2"), required=True)
    table.add_argument("--algo", choices=("ssi", "gssi"), required=True)
    table.add_argument("--n-max", type=_positive, required=True)
    table.set_defaults(handler=cmd_iteration_table)

    return parser


def _read_text(path: str, newline: str | None = None) -> str:
    try:
        with open(path, newline=newline) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write the strings of ``lines`` in turn, each as soon as it is made."""
    try:
        with open(path, "w") as handle:
            handle.writelines(lines)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    _write_lines(path, (text,))


def _load_game(path: str) -> ParityGame:
    return pgsolver.parse_pgsolver(_read_text(path))


def _distances_to_sink(gi: GameIndex) -> list[int]:
    """Each node's edge distance to the sink in the game graph, by a BFS
    over reversed edges; ``len(gi.ids)`` where the sink is unreachable."""
    n = len(gi.ids)
    dist = [n] * n
    dist[gi.sink] = 0
    queue = deque([gi.sink])
    while queue:
        w = queue.popleft()
        for preds in (gi.pred[0][w], gi.pred[1][w]):
            for v in preds:
                if dist[v] == n:
                    dist[v] = dist[w] + 1
                    queue.append(v)
    return dist


def _default_strategy(game: ParityGame, player: int) -> Strategy:
    """An admissible starting strategy found by simple sink-seeking
    heuristics; admissibility is checked, not assumed."""
    gi = game_index(game)
    dist = _distances_to_sink(gi)
    ids = gi.ids

    def greedy(tie_high: bool) -> Strategy:
        # positions are in id order, so ties break on ids as well
        key = lambda w: (dist[w], -w if tie_high else w)
        return Strategy(player, {ids[v]: ids[min(gi.succ[v], key=key)] for v in gi.nodes[player]})

    for candidate in (greedy(tie_high=False), greedy(tie_high=True)):
        if is_admissible(game, candidate):
            return candidate
    raise InputError(
        f"no admissible default strategy found for player {player}; "
        f"provide one with {'--sigma0' if player == PLAYER0 else '--tau0'}"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    inst = families.generate(args.family, args.n)
    lines = pgsolver.pgsolver_lines(inst.game)
    if args.out:
        _write_lines(args.out, lines)
    else:
        sys.stdout.writelines(lines)
    if args.sigma0_out:
        _write_text(args.sigma0_out, traces.write_strategy_text(inst.sigma0))
    if args.tau0_out:
        _write_text(args.tau0_out, traces.write_strategy_text(inst.tau0))
    return 0


def _resolve_solve_inputs(args: argparse.Namespace, needed: tuple[int, ...]):
    """The game, its name, and the start strategies: given by file, else the
    family's, else a default for each player in ``needed``. Inputs the run
    does not use are refused before any file is read."""
    files = ((PLAYER0, "--sigma0", args.sigma0), (PLAYER1, "--tau0", args.tau0))
    for p, flag, path in files:
        if path and p not in needed:
            raise InputError(f"run takes no player {p} start strategy for {flag}")
    if bool(args.game) == bool(args.family):
        raise InputError("choose exactly one of --game or --family")
    if args.family:
        if args.n is None:
            raise InputError("--family needs --n")
        inst = families.generate(args.family, args.n)
        game = inst.game
        game_id = f"{args.family}-n{args.n}"
        sigma0, tau0 = inst.sigma0, inst.tau0
    else:
        if args.n is not None:
            raise InputError("--n only applies to --family")
        game = _load_game(args.game)
        game_id = Path(args.game).name
        violations = validate_game(game, require_sink=True)
        if violations:
            raise InputError("; ".join(str(v) for v in violations))
        sigma0 = tau0 = None
    starts = [sigma0, tau0]
    for p, flag, path in files:
        if path:
            # untranslated, so that the parser sees the file's own line ends
            text = _read_text(path, newline="")
            try:
                starts[p] = traces.parse_strategy_text(text, game)
            except ValueError as exc:
                raise InputError(f"{flag} file is invalid: {exc}") from exc
            if starts[p].player != p:
                raise InputError(f"{flag} file describes a player {1 - p} strategy")
    for p in needed:
        if starts[p] is None:
            starts[p] = _default_strategy(game, p)
    return game, game_id, starts[PLAYER0], starts[PLAYER1]


def cmd_solve(args: argparse.Namespace) -> int:
    if args.trace and not args.trace.endswith((".csv", ".json")):
        raise InputError("--trace file must end in .csv or .json")
    if args.player is not None and args.algo != "si":
        raise InputError("--player only applies to --algo si")
    player = PLAYER1 if args.algo == "si" and args.player == 1 else PLAYER0
    needed = (player,) if args.algo == "si" else (PLAYER0, PLAYER1)
    outputs = ((PLAYER0, "sigma", args.sigma_out), (PLAYER1, "tau", args.tau_out))
    for p, name, path in outputs:
        if path and p not in needed:
            raise InputError(f"run produced no player {p} strategy for --{name}-out")
    game, game_id, sigma0, tau0 = _resolve_solve_inputs(args, needed)
    if args.trace and args.trace.endswith(".csv") and "\n" in game_id:
        raise InputError(f"a CSV trace cannot hold the game id {game_id!r}, which has a newline")
    rule = make_rule(args.rule, args.seed)
    # the run's first valuation of each start is its admissibility check
    try:
        if args.algo == "si":
            result = run_si(game, sigma0 if player == PLAYER0 else tau0, rule)
        else:
            runner = run_ssi if args.algo == "ssi" else run_gssi
            result = runner(game, sigma0, tau0, rule)
    except NotAdmissibleError as exc:
        raise InputError(str(exc)) from exc

    status = traces.certificate_status(game, result)
    print(f"algorithm: {args.algo}")
    print(f"rule: {args.rule}")
    print(f"seed: {'-' if args.seed is None else args.seed}")
    print(f"iterations: {result.iterations}")
    print(f"certificate: {status}")
    for p, name, path in outputs:
        final = (result.sigma, result.tau)[p]
        if final is not None:
            print(f"{name}: " + " ".join(f"{v}->{w}" for v, w in sorted(final.choice.items())))
        if path:
            _write_text(path, traces.write_strategy_text(final))
    if args.trace:
        trace = traces.build_trace_file(
            game, result, game_id, args.algo, args.rule, args.seed, certificate=status
        )
        if args.trace.endswith(".csv"):
            _write_text(args.trace, traces.to_csv(trace))
        else:
            _write_text(args.trace, traces.to_json(trace))
    if status != "verified":
        raise SolverInvariantError("run terminated at a non-optimal strategy")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    # neither the parsed game nor the reduction map is kept, and the text is
    # written as it is made, so one game at a time is held in full; the
    # columns go in a list the callee empties, as Python 3.10 would keep an
    # argument alive until the call returns, and the parsed game is not kept
    reduced = reduction._sink_game([_load_game(args.game).columns()])[0]
    try:
        lines = pgsolver.pgsolver_lines(reduced)
    except ValueError as exc:
        raise InputError(f"cannot write the reduced game: {exc}") from exc
    _write_lines(args.out, lines)
    return 0


def cmd_winners(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    result = reduction.solve_winners(game)
    sys.stdout.writelines([
        "W0: " + " ".join(map(str, sorted(result.w0))) + "\n",
        "W1: " + " ".join(map(str, sorted(result.w1))) + "\n",
        *(f"win0 {v} {w}\n" for v, w in sorted(result.strategy0.items())),
        *(f"win1 {v} {w}\n" for v, w in sorted(result.strategy1.items())),
    ])
    if args.sigma_out:
        sigma = Strategy(PLAYER0, result.strategy0)
        _write_text(args.sigma_out, traces.write_strategy_text(sigma))
    if args.tau_out:
        tau = Strategy(PLAYER1, result.strategy1)
        _write_text(args.tau_out, traces.write_strategy_text(tau))
    return 0


def cmd_iteration_table(args: argparse.Namespace) -> int:
    runner = run_ssi if args.algo == "ssi" else run_gssi
    rule = make_rule("all")
    print(f"{'n':>3} {'iterations':>12} {'expected':>12} {'match':>6}")
    mismatch = False
    for n in range(1, args.n_max + 1):
        inst = families.generate(args.family, n)
        result = runner(inst.game, inst.sigma0, inst.tau0, rule)
        expected = families.expected_iterations(args.family, args.algo, n)
        if expected is None:
            expected_text, match = "-", "-"
        else:
            match = "yes" if result.iterations == expected else "no"
            mismatch = mismatch or match == "no"
            expected_text = str(expected)
        print(f"{n:>3} {result.iterations:>12} {expected_text:>12} {match:>6}")
    if mismatch:
        raise SolverInvariantError("measured iteration counts deviate from the closed form")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code. Repeated calls in one
    process share the parser of :func:`build_parser`.

    The cyclic garbage collector is paused while the command runs and left
    as it was found when the call returns or raises. No command makes a
    reference cycle, so reference counting frees every object as soon as it
    is dropped and peak memory does not depend on the pause; the collector's
    passes, set off by the many tuples a parse or a reduction allocates,
    would free nothing. The collector's state is process-wide, so ``main``
    is not meant for concurrent calls from several threads.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (InputError, NotSinkGameError, pgsolver.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotAdmissibleError, SolverInvariantError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
