"""The benchmark's workloads: the inputs each one builds, the CLI argv of
its jobs, and the check every distinct job output must pass.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import checker


@dataclass(frozen=True)
class Job:
    """One ``sinkgames.cli.main(argv)`` call. Jobs with the same ``key`` run
    on the same input and must produce byte-identical outputs."""

    key: str
    argv: list[str]
    out_file: Path | None


def random_parity_game(rng: random.Random, n: int, max_degree: int = 3) -> checker.Game:
    """The shape of the test suite's ``random_parity_game``: uniform owners,
    priorities in 0..2n and 1..max_degree distinct successors per node."""
    heads = [(rng.randint(0, 1), rng.randint(0, 2 * n)) for _ in range(n)]
    game: checker.Game = {}
    for v, (owner, priority) in enumerate(heads):
        k = rng.randint(1, min(max_degree, n))
        game[v] = (owner, priority, tuple(rng.sample(range(n), k)))
    return game


def to_pgsolver(game: checker.Game) -> str:
    lines = [f"parity {max(game)};"]
    for v, (owner, priority, moves) in sorted(game.items()):
        lines.append(f"{v} {priority} {owner} {','.join(map(str, moves))};")
    return "\n".join(lines) + "\n"


def _summary(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def _check_solve(stdout: str, iterations: int) -> str | None:
    fields = _summary(stdout)
    if fields.get("iterations") != str(iterations):
        return f"iterations {fields.get('iterations')!r}, expected {iterations}"
    if fields.get("certificate") != "verified":
        return f"certificate {fields.get('certificate')!r}"
    return None


def _strategy(text: str) -> dict[int, int]:
    return {int(v): int(w) for v, w in (edge.split("->") for edge in text.split())}


class LadderSsi:
    """``solve --algo ssi`` on the ``table1`` ladder: 26 nodes, 72 edges,
    8,189 iterations of many small valuations."""

    name = "ladder-ssi"
    n = 12
    iterations = 2 ** (n + 1) - 3

    def build(self, seed: int, work: Path) -> list[Job]:
        trace = work / "ladder.csv"
        argv = ["solve", "--algo", "ssi", "--family", "table1", "--n", str(self.n), "--trace", str(trace)]
        return [Job("table1", argv, trace)]

    def optimal(self) -> tuple[dict[int, int], dict[int, int]]:
        """The unique optimal pair in closed form: both players walk their
        chain and divert at the last level. Node a_i has id i-1, d_i id n+i."""
        n = self.n
        a = {i: i - 1 for i in range(1, n + 2)}
        d = {i: n + i for i in range(1, n + 2)}
        sigma = {a[i]: a[i + 1] for i in range(1, n)} | {a[n]: d[n + 1], a[n + 1]: a[n + 1]}
        tau = {d[i]: d[i + 1] for i in range(1, n)} | {d[n]: a[n + 1], d[n + 1]: a[n + 1]}
        return sigma, tau

    def check(self, job: Job, stdout: str, output: bytes) -> str | None:
        error = _check_solve(stdout, self.iterations)
        if error:
            return error
        fields = _summary(stdout)
        sigma, tau = self.optimal()
        if _strategy(fields.get("sigma", "")) != sigma or _strategy(fields.get("tau", "")) != tau:
            return "final strategies differ from the closed-form optimum"
        footer = output.decode().rstrip("\n").rsplit("\n", 1)[-1]
        if footer != f"# iterations={self.iterations} certificate=verified":
            return f"trace footer {footer!r}"
        return None


class WinnersRandom:
    """``winners`` on a seed-drawn list of arbitrary parity games; each job
    takes the next game of the list."""

    name = "winners-random"
    nodes = 100
    games = 256
    iterations = None

    def build(self, seed: int, work: Path) -> list[Job]:
        rng = random.Random(f"winners-random/{seed}")
        self.by_key: dict[str, checker.Game] = {}
        jobs = []
        for i in range(self.games):
            game = random_parity_game(rng, self.nodes)
            path = work / f"winners-{i}.pg"
            path.write_text(to_pgsolver(game))
            self.by_key[path.name] = game
            jobs.append(Job(path.name, ["winners", "--game", str(path)], None))
        return jobs

    def check(self, job: Job, stdout: str, output: bytes) -> str | None:
        w0: set[int] = set()
        w1: set[int] = set()
        strategies: tuple[dict[int, int], dict[int, int]] = ({}, {})
        for line in stdout.splitlines():
            head, _, rest = line.partition(" ")
            if head == "W0:":
                w0 = {int(v) for v in rest.split()}
            elif head == "W1:":
                w1 = {int(v) for v in rest.split()}
            elif head in ("win0", "win1"):
                v, w = rest.split()
                strategies[int(head[-1])][int(v)] = int(w)
            else:
                return f"unexpected output line {line!r}"
        return checker.check_winners(self.by_key[job.key], w0, w1, *strategies)


class ReduceIo:
    """``reduce`` of one seed-drawn 20,000-node game, PGSolver file in and
    out; every job repeats the same reduction."""

    name = "reduce-io"
    nodes = 20_000
    iterations = None

    def build(self, seed: int, work: Path) -> list[Job]:
        rng = random.Random(f"reduce-io/{seed}")
        game = random_parity_game(rng, self.nodes)
        source, out = work / "reduce-in.pg", work / "reduce-out.pg"
        source.write_text(to_pgsolver(game))
        # one cycle breaker per same-owner edge, plus the sink and ``w``
        breakers = sum(game[v][0] == game[w][0] for v in game for w in game[v][2])
        self.expected_nodes = self.nodes + breakers + 2
        self.game = game
        return [Job("reduce", ["reduce", "--game", str(source), "--out", str(out)], out)]

    def check(self, job: Job, stdout: str, output: bytes) -> str | None:
        try:
            reduced = checker.read_pgsolver(output.decode())
        except ValueError as exc:
            return f"output does not re-parse: {exc}"
        if len(reduced) != self.expected_nodes:
            return f"output has {len(reduced)} nodes, expected {self.expected_nodes}"
        for v, (owner, _, _) in self.game.items():
            if reduced.get(v, (None,))[0] != owner:
                return f"original node {v} is missing or changed owner"
        return checker.check_sink_game(reduced)


WORKLOADS = {w.name: w for w in (LadderSsi, WinnersRandom, ReduceIo)}
