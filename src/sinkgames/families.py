"""Generators for the two worst-case game families and their starting
strategies.

Both families are ladders of n levels ending in a low-priority self-loop
sink and a highest-even-priority node just before it. The ``table1`` family
uses one node pair per level; the ``table2`` family replaces each pair with
an eight-node gadget whose detour nodes make locally attractive switches
look insignificant. Each family is one table of ``(label, owner, priority,
successor labels)`` rows listed in id order: the a-chain, then the d-chain,
then the gadget nodes level by level. Row k is node k, so id-based
tie-breaks, and therefore published traces, are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import PLAYER0, PLAYER1, ParityGame, Strategy


@dataclass(frozen=True)
class LabeledInstance:
    """A generated game, whose labels name the nodes' roles, and its
    canonical start strategies."""

    game: ParityGame
    sigma0: Strategy
    tau0: Strategy

    def id_of(self, label: str) -> int:
        for v in self.game.node_ids:
            if self.game.label(v) == label:
                return v
        raise KeyError(label)


def _build(
    n: int, rows: list[tuple[str, int, int, tuple[str, ...]]], start: dict[str, str]
) -> LabeledInstance:
    """Number the rows 0, 1, ... and build the game with sink a{n+1}. A
    row's start choice is ``start[label]``, else its first successor."""
    if n < 1:
        raise ValueError(f"family size must be at least 1, got {n}")
    labels, owners, priorities, succs = zip(*rows)
    ids = {label: v for v, label in enumerate(labels)}
    edges = [tuple(ids[w] for w in row) for row in succs]
    sink = ids[f"a{n + 1}"]
    game = ParityGame(range(len(rows)), owners, priorities, labels, edges, sink=sink)
    choice: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for v, (label, owner, _, row) in enumerate(rows):
        choice[owner][v] = ids[start.get(label, row[0])]
    return LabeledInstance(game, Strategy(PLAYER0, choice[0]), Strategy(PLAYER1, choice[1]))


def gen_table1(n: int) -> LabeledInstance:
    """Ladder family: 2n+2 nodes, 6n edges.

    Level i has a player 0 node a_i (odd priority 2i+1) and a player 1 node
    d_i (even priority 2i+2); levels above the first can fall back to the
    ladder start. a_{n+1} is the sink, d_{n+1} carries the game's highest,
    even priority. Start strategies walk each chain forward.
    """
    levels = range(1, n + 1)
    up = {i: (f"a{i + 1}", f"d{i + 1}") for i in levels}
    rows = [(f"a{i}", PLAYER0, 2 * i + 1, ("a1",) * (i > 1) + up[i]) for i in levels]
    rows.append((f"a{n + 1}", PLAYER0, 1, (f"a{n + 1}",)))
    rows += [(f"d{i}", PLAYER1, 2 * i + 2, ("d1",) * (i > 1) + up[i]) for i in levels]
    rows.append((f"d{n + 1}", PLAYER1, 2 * n + 4, (f"a{n + 1}",)))
    start = {f"a{i}": up[i][0] for i in levels} | {f"d{i}": up[i][1] for i in levels}
    return _build(n, rows, start)


def optimal_table1(n: int) -> tuple[Strategy, Strategy]:
    """The unique optimal pair of the ladder family in closed form: each
    player walks their chain and diverts at the last level."""
    inst = gen_table1(n)
    a_n, d_n, a_top, d_top = map(inst.id_of, (f"a{n}", f"d{n}", f"a{n + 1}", f"d{n + 1}"))
    return inst.sigma0.rewired([(a_n, d_top)]), inst.tau0.rewired([(d_n, a_top)])


def gen_table2(n: int) -> LabeledInstance:
    """Gadget family: each ladder level carries an eight-node module.

    Ladder nodes a_i/d_i keep priorities above N = 16n+16 so they dominate
    comparisons; gadget nodes stay below N. Back-edges to the ladder start
    exist only on levels above the first.
    """
    levels = range(1, n + 1)
    big = 16 * n + 16
    rows = [(f"a{i}", PLAYER0, big + 2 * i - 1, (f"c{i}",)) for i in levels]
    rows.append((f"a{n + 1}", PLAYER0, 1, (f"a{n + 1}",)))
    rows += [(f"d{i}", PLAYER1, big + 2 * i, (f"h{i}",)) for i in levels]
    rows.append((f"d{n + 1}", PLAYER1, big + 2 * n + 2, (f"a{n + 1}",)))
    start: dict[str, str] = {}
    for i in levels:
        c, e, m, f, g, k, h, l = (role + str(i) for role in "cemfgkhl")
        a_up, d_up = f"a{i + 1}", f"d{i + 1}"
        back_a, back_d = ("a1",) * (i > 1), ("d1",) * (i > 1)
        rows += [
            (c, PLAYER0, 14 * i + 1, (e, m) + back_a),
            (e, PLAYER1, 14 * i + 4, (m, a_up)),
            (m, PLAYER0, 14 * i + 3, (f, c) + back_a),
            (f, PLAYER1, 14 * i + 6, (c, d_up)),
            (g, PLAYER1, 14 * i + 8, (k, h) + back_d),
            (k, PLAYER0, 14 * i + 11, (h, a_up)),
            (h, PLAYER1, 14 * i + 10, (l, g) + back_d),
            (l, PLAYER0, 14 * i + 13, (g, d_up)),
        ]
        start |= {m: c, k: a_up, l: d_up, g: h, e: a_up, f: d_up}
    return _build(n, rows, start)


def generate(family: str, n: int) -> LabeledInstance:
    if family == "table1":
        return gen_table1(n)
    if family == "table2":
        return gen_table2(n)
    raise ValueError(f"unknown family {family!r}")


def expected_iterations(family: str, algorithm: str, n: int) -> int | None:
    """Closed-form iteration count where one is known: the ladder family
    under symmetric improvement and the gadget family under the
    generalized version, both with the switch-all rule."""
    if family == "table1" and algorithm == "ssi":
        return 2 ** (n + 1) - 3
    if family == "table2" and algorithm == "gssi":
        return 7 * 2 ** (n - 1) - 5
    return None
