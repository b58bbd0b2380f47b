"""A frozen reference valuation engine for differential tests.

It keeps the engine's earlier schedule: every relaxed node starts from the
sentinel and is swept in the order of a BFS from the sink over the
reversed game edges, until a sweep changes nothing or |V| sweeps have run.
A cone restart relaxes the nodes with a path to a switched node in the
strategy subgraph and keeps every other value. Games are plain columns
indexed 0..n-1, and no code is shared with ``sinkgames``, so the engine's
ordering, its one-pass rule and its integer codes are all checked against
an independent computation.

``full_sweeps`` keeps the engine's earlier sweep loop, which relaxed every
node of the order in every sweep, so the change-driven sweep can be checked
against it on the engine's own orders and start values.
"""

from __future__ import annotations

from collections import deque

NOT_STABLE = "valuation fixpoint did not stabilize"


class ReferenceGame:
    """A sink game as columns (node ids, owners, priorities, successor
    indices, the sink's index), with the value encoding and the sink-BFS
    order the reference sweeps in."""

    def __init__(self, ids, owners, priorities, successors, sink):
        n = len(owners)
        self.ids = list(ids)
        self.owners = list(owners)
        self.successors = [tuple(s) for s in successors]
        self.sink = sink
        ranks = {q: r for r, q in enumerate(sorted(set(priorities)))}
        base = 2 * (n + 2) + 4
        self.weight = [base ** ranks[q] * (1 if q % 2 == 0 else -1) for q in priorities]
        self.finite_bound = 2 * base ** len(ranks)
        self.pos_init = 4 * base ** (len(ranks) + 1)
        self.pred = [[] for _ in range(n)]
        for v, succs in enumerate(self.successors):
            for w in dict.fromkeys(succs):
                self.pred[w].append(v)
        dist = [None] * n
        dist[sink] = 0
        queue = deque([sink])
        order = []
        while queue:
            w = queue.popleft()
            for v in self.pred[w]:
                if dist[v] is None:
                    dist[v] = dist[w] + 1
                    order.append(v)
                    queue.append(v)
        self.order = order + [v for v in range(n) if dist[v] is None]

    def subgraph(self, player, choice):
        """Successor tuples of the strategy subgraph: ``player``'s nodes
        keep the edge ``choice`` names."""
        return [
            (choice[v],) if self.owners[v] == player else succs
            for v, succs in enumerate(self.successors)
        ]

    def cone(self, sub, switched):
        """The nodes with a path in ``sub`` to a node of ``switched``."""
        seen = set(switched)
        stack = list(switched)
        while stack:
            w = stack.pop()
            for v in self.pred[w]:
                if v not in seen and w in sub[v]:
                    seen.add(v)
                    stack.append(v)
        return seen

    def codes(self, player, choice, prev=None, switched=()):
        """The codes of ``player``'s strategy ``choice`` (a list or dict from
        the player's node indices to successor indices), or the message of
        the error the engine raises. With ``prev`` only the backward cone of
        ``switched`` is relaxed."""
        sub = self.subgraph(player, choice)
        minimize = player == 0
        if prev is None:
            values = [0] * len(self.owners)
            order = self.order
        else:
            values = list(prev)
            cone = self.cone(sub, switched)
            order = [v for v in self.order if v in cone]
        for v in order:
            values[v] = self.pos_init if minimize else -self.pos_init
        for _ in range(max(len(self.owners), 2)):
            changed = False
            for v in order:
                succ_values = [values[w] for w in sub[v]]
                nv = self.weight[v] + (min(succ_values) if minimize else max(succ_values))
                if nv != values[v]:
                    values[v] = nv
                    changed = True
            if not changed:
                break
        else:
            return NOT_STABLE
        out = [v for v in order if not -self.finite_bound < values[v] < self.finite_bound]
        if out:
            return f"node {self.ids[min(out)]} cannot reach the sink under this strategy"
        return values


def full_sweeps(weight, order, succ_first, succ_rest, values, max_sweeps):
    """Relax every node of ``order``, in that order, in place until a sweep
    changes nothing: each node takes its ``weight`` plus the least value
    among ``succ_first[v]`` and ``succ_rest[v]``. False when ``max_sweeps``
    sweeps did not stabilize."""
    for _ in range(max_sweeps):
        changed = False
        for v in order:
            m = values[succ_first[v]]
            for w in succ_rest[v]:
                x = values[w]
                if x < m:
                    m = x
            nv = weight[v] + m
            if nv != values[v]:
                values[v] = nv
                changed = True
        if not changed:
            return True
    return False
