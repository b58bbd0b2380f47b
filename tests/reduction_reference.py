"""A frozen reference of the two-step reduction for differential tests.

It keeps the library's earlier public route to a sink game: first subdivide
every same-owner edge with a node of the other owner whose priority lies one
below every other, and shift the priorities by the least even amount that
keeps them nonnegative; then refuse a game that still has a cycle within one
player's nodes, attach the sink and ``w``, and shift again. Games are plain
columns in ascending id order, and no code is shared with ``sinkgames``, so
``reduce_game``'s single pass and single shift are checked against an
independent computation.
"""

from __future__ import annotations


def even_shift(low):
    """The least even amount that lifts ``low`` to at least 0."""
    return -low + low % 2 if low < 0 else 0


def break_same_owner_cycles(ids, owners, priorities, labels, successors):
    """The subdivided columns and the breakers, x -> (u, w); the columns
    come back unchanged when no edge joins two nodes of one owner."""
    owner_of = dict(zip(ids, owners))
    low = min(priorities) - 1
    next_id = max(ids) + 1
    breakers = {}
    rows = []
    for u, succs in zip(ids, successors):
        row = []
        for w in succs:
            if owner_of.get(w) == owner_of[u]:
                breakers[next_id] = (u, w)
                row.append(next_id)
                next_id += 1
            else:
                row.append(w)
        rows.append(tuple(row))
    if not breakers:
        return (ids, owners, priorities, labels, successors), {}
    ids = list(ids) + list(breakers)
    owners = list(owners) + [1 - owner_of[u] for u, _ in breakers.values()]
    priorities = list(priorities) + [low] * len(breakers)
    shift = even_shift(min(priorities))
    priorities = [q + shift for q in priorities]
    labels = list(labels) + [None] * len(breakers)
    rows += [(w,) for _, w in breakers.values()]
    return (ids, owners, priorities, labels, rows), breakers


def has_same_owner_cycle(ids, owners, successors):
    """Whether some cycle stays within one player's nodes: peel nodes with
    no same-owner successor left until none can be peeled."""
    owner_of = dict(zip(ids, owners))
    left = {
        u: {w for w in succs if owner_of.get(w) == owner_of[u]}
        for u, succs in zip(ids, successors)
    }
    peeled = True
    while peeled:
        peeled = False
        for u in [u for u, succs in left.items() if not succs & left.keys()]:
            del left[u]
            peeled = True
    return bool(left)


def to_sink_game(ids, owners, priorities, labels, successors):
    """The sink game's columns, sink, ``w`` and the priority of ``w``."""
    if has_same_owner_cycle(ids, owners, successors):
        raise ValueError("game has a same-owner cycle")
    top = max(ids) + 1
    w = top + 1
    high = max(priorities)
    pw = high + 1 if (high + 1) % 2 == 0 else high + 2
    rows = [tuple(succs) + ((top,) if owner == 0 else (w,)) for owner, succs in zip(owners, successors)]
    priorities = list(priorities) + [min(priorities) - 1, pw]
    shift = even_shift(min(priorities))
    cols = (
        list(ids) + [top, w],
        list(owners) + [0, 1],
        [q + shift for q in priorities],
        list(labels) + ["top", "w"],
        rows + [(top,), (top,)],
    )
    return cols, top, w, pw + shift


def two_step_reduction(ids, owners, priorities, labels, successors):
    """Both steps: the sink game's columns, the breakers, the sink, ``w``
    and the priority of ``w``."""
    broken, breakers = break_same_owner_cycles(ids, owners, priorities, labels, successors)
    cols, sink, w, pw = to_sink_game(*broken)
    return cols, breakers, sink, w, pw
