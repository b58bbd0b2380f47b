"""Generators for the two worst-case game families and their starting
strategies.

Both families are ladders of n levels ending in a low-priority self-loop
sink and a highest-even-priority node just before it. The ``table1`` family
uses one node pair per level; the ``table2`` family replaces each pair with
an eight-node gadget whose detour nodes make locally attractive switches
look insignificant. Node ids are assigned ladder-first (a-chain, then
d-chain, then gadget nodes level by level) so that id-based tie-breaks, and
therefore published traces, are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import PLAYER0, PLAYER1, NodeRecord, ParityGame, Strategy


@dataclass(frozen=True)
class LabeledInstance:
    """A generated game with role labels and its canonical start strategies."""

    game: ParityGame
    sigma0: Strategy
    tau0: Strategy
    labels: dict[int, str]

    def id_of(self, label: str) -> int:
        for v, name in self.labels.items():
            if name == label:
                return v
        raise KeyError(label)


def gen_table1(n: int) -> LabeledInstance:
    """Ladder family: 2n+2 nodes, 6n edges.

    Level i has a player 0 node a_i (odd priority 2i+1) and a player 1 node
    d_i (even priority 2i+2); levels above the first can fall back to the
    ladder start. a_{n+1} is the sink, d_{n+1} carries the game's highest,
    even priority. Start strategies walk each chain forward.
    """
    if n < 1:
        raise ValueError(f"family size must be at least 1, got {n}")
    a = {i: i - 1 for i in range(1, n + 2)}  # a_1..a_{n+1} -> ids 0..n
    d = {i: n + i for i in range(1, n + 2)}  # d_1..d_{n+1} -> ids n+1..2n+1
    nodes = []
    edges: dict[int, tuple[int, ...]] = {}
    labels: dict[int, str] = {}

    def add(node_id: int, owner: int, priority: int, succs: tuple[int, ...], label: str):
        nodes.append(NodeRecord(node_id, owner, priority, label))
        edges[node_id] = succs
        labels[node_id] = label

    add(a[1], PLAYER0, 3, (a[2], d[2]), "a1")
    for i in range(2, n + 1):
        add(a[i], PLAYER0, 2 * i + 1, (a[1], a[i + 1], d[i + 1]), f"a{i}")
    add(a[n + 1], PLAYER0, 1, (a[n + 1],), f"a{n + 1}")
    add(d[1], PLAYER1, 4, (a[2], d[2]), "d1")
    for i in range(2, n + 1):
        add(d[i], PLAYER1, 2 * i + 2, (d[1], a[i + 1], d[i + 1]), f"d{i}")
    add(d[n + 1], PLAYER1, 2 * n + 4, (a[n + 1],), f"d{n + 1}")

    game = ParityGame(nodes, edges, sink=a[n + 1])
    sigma0 = Strategy(PLAYER0, {a[i]: a[i + 1] for i in range(1, n + 1)} | {a[n + 1]: a[n + 1]})
    tau0 = Strategy(PLAYER1, {d[i]: d[i + 1] for i in range(1, n + 1)} | {d[n + 1]: a[n + 1]})
    return LabeledInstance(game, sigma0, tau0, labels)


def optimal_table1(n: int) -> tuple[Strategy, Strategy]:
    """The unique optimal pair of the ladder family in closed form: each
    player walks their chain and diverts at the last level."""
    inst = gen_table1(n)
    a = {i: inst.id_of(f"a{i}") for i in range(1, n + 2)}
    d = {i: inst.id_of(f"d{i}") for i in range(1, n + 2)}
    sigma = {a[i]: a[i + 1] for i in range(1, n)}
    sigma[a[n]] = d[n + 1]
    sigma[a[n + 1]] = a[n + 1]
    tau = {d[i]: d[i + 1] for i in range(1, n)}
    tau[d[n]] = a[n + 1]
    tau[d[n + 1]] = a[n + 1]
    return Strategy(PLAYER0, sigma), Strategy(PLAYER1, tau)


def gen_table2(n: int) -> LabeledInstance:
    """Gadget family: each ladder level carries an eight-node module.

    Ladder nodes a_i/d_i keep priorities above N = 16n+16 so they dominate
    comparisons; gadget nodes stay below N. Back-edges to the ladder start
    exist only on levels above the first.
    """
    if n < 1:
        raise ValueError(f"family size must be at least 1, got {n}")
    big = 16 * n + 16
    a = {i: i - 1 for i in range(1, n + 2)}
    d = {i: n + i for i in range(1, n + 2)}
    gadget_base = 2 * n + 2
    roles = ("c", "e", "m", "f", "g", "k", "h", "l")
    gadget: dict[tuple[str, int], int] = {}
    for i in range(1, n + 1):
        for slot, role in enumerate(roles):
            gadget[(role, i)] = gadget_base + 8 * (i - 1) + slot

    nodes = []
    edges: dict[int, tuple[int, ...]] = {}
    labels: dict[int, str] = {}

    def add(node_id: int, owner: int, priority: int, succs: tuple[int, ...], label: str):
        nodes.append(NodeRecord(node_id, owner, priority, label))
        edges[node_id] = succs
        labels[node_id] = label

    c = {i: gadget[("c", i)] for i in range(1, n + 1)}
    e = {i: gadget[("e", i)] for i in range(1, n + 1)}
    m = {i: gadget[("m", i)] for i in range(1, n + 1)}
    f = {i: gadget[("f", i)] for i in range(1, n + 1)}
    g = {i: gadget[("g", i)] for i in range(1, n + 1)}
    k = {i: gadget[("k", i)] for i in range(1, n + 1)}
    h = {i: gadget[("h", i)] for i in range(1, n + 1)}
    l = {i: gadget[("l", i)] for i in range(1, n + 1)}

    for i in range(1, n + 1):
        add(a[i], PLAYER0, big + 2 * i - 1, (c[i],), f"a{i}")
        add(d[i], PLAYER1, big + 2 * i, (h[i],), f"d{i}")
    add(a[n + 1], PLAYER0, 1, (a[n + 1],), f"a{n + 1}")
    add(d[n + 1], PLAYER1, big + 2 * n + 2, (a[n + 1],), f"d{n + 1}")
    for i in range(1, n + 1):
        back_a = (a[1],) if i > 1 else ()
        back_d = (d[1],) if i > 1 else ()
        add(c[i], PLAYER0, 14 * i + 1, (e[i], m[i]) + back_a, f"c{i}")
        add(m[i], PLAYER0, 14 * i + 3, (f[i], c[i]) + back_a, f"m{i}")
        add(e[i], PLAYER1, 14 * i + 4, (m[i], a[i + 1]), f"e{i}")
        add(f[i], PLAYER1, 14 * i + 6, (c[i], d[i + 1]), f"f{i}")
        add(g[i], PLAYER1, 14 * i + 8, (k[i], h[i]) + back_d, f"g{i}")
        add(h[i], PLAYER1, 14 * i + 10, (l[i], g[i]) + back_d, f"h{i}")
        add(k[i], PLAYER0, 14 * i + 11, (h[i], a[i + 1]), f"k{i}")
        add(l[i], PLAYER0, 14 * i + 13, (g[i], d[i + 1]), f"l{i}")

    game = ParityGame(nodes, edges, sink=a[n + 1])
    sigma_choice = {a[n + 1]: a[n + 1]}
    tau_choice = {d[n + 1]: a[n + 1]}
    for i in range(1, n + 1):
        sigma_choice[a[i]] = c[i]
        sigma_choice[c[i]] = e[i]
        sigma_choice[m[i]] = c[i]
        sigma_choice[k[i]] = a[i + 1]
        sigma_choice[l[i]] = d[i + 1]
        tau_choice[d[i]] = h[i]
        tau_choice[g[i]] = h[i]
        tau_choice[h[i]] = l[i]
        tau_choice[e[i]] = a[i + 1]
        tau_choice[f[i]] = d[i + 1]
    sigma0 = Strategy(PLAYER0, sigma_choice)
    tau0 = Strategy(PLAYER1, tau_choice)
    return LabeledInstance(game, sigma0, tau0, labels)


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
