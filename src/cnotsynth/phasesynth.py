"""Gray-code-style synthesis of phase polynomial networks under connectivity constraints.

Given a phase polynomial, :func:`phase_nw_synth` explores cofactors of its column
set in one loop over a stack of (columns, candidate rows, target) frames, as
GraySynth does: splitting on a pivot row groups columns that share a value
there, so the CNOTs steering a shared partial parity onto a target wire are
paid for once. Whenever a frame is popped with a concrete target wire, the rows
on which all of its columns agree with a 1 are collected onto that wire along a
Steiner tree (ROW-OP in its path-per-leaf mode). Columns reduced to a single 1
are realized: the phase gate selected by their coefficient (with a leading X
when the wire's current flip bit disagrees with the term's) lands on the
realizing wire, and the column leaves the popped frame.

Only the popped frame's columns ever become single, and a popped frame with
live columns always has a candidate row left, because the zero-cofactor is
pushed last and so popped next. A frame without a target is then popped before
any expansion, its columns 0 on every row split on. A one-cofactor waits only
through its zero sibling's expansions, whose trees join its target t and its
candidates K, so its rows change inside K alone and each of its columns keeps
two 1s: t and the split row, or t and a part in K.

The parity matrix is kept by rows. The multi-variable terms are numbered in
input order, and ``rows[j]`` is the bitset of the terms whose parity, over the
*current* wire states, holds wire j; a frame's columns are one bitset, and each
term's flip bit and coefficient sit in two lists. CNOT(c, t) on the wires
rewrites the terms by adding row t into row c. An expansion emits one path per
leaf by its four traversals, which restore every interior wire: the path's net
effect is that its top wire gains its leaf wire, so the wires and the rows take
that one update per path (``rows[leaf] ^= rows[top]``), not one per CNOT. Two
terminals are one path, the memoized :func:`~cnotsynth.linsynth._route` from
the other terminal to the root; :func:`~cnotsynth.linsynth._subtrees` cuts the
tree of three or more. Both search the whole graph, the vertices 1..n. Two
bit-sliced accumulators over the rows then give the columns left with a single
1, and one sweep the row of each. Pivot counts, common rows and splits are ANDs
and popcounts of a row with a frame's bitset.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cache

from .circuit import Circuit, Gate, GateKind, cnot
from .linalg import CONST_BIT, AugmentedTransform, OverBudget, format_parity
from .linsynth import _route, _subtrees
from .phasepoly import PhasePolySet
from .topology import ConnectivityGraph

#: Phase gates realizing each nonzero Z8 coefficient (applied left to right).
COEFF_GATES = {
    1: (GateKind.T,),
    2: (GateKind.S,),
    3: (GateKind.S, GateKind.T),
    4: (GateKind.Z,),
    5: (GateKind.Z, GateKind.T),
    6: (GateKind.SDG,),
    7: (GateKind.TDG,),
}


@cache
def phase_gates(wire: int, coeff: int) -> tuple[Gate, tuple[Gate, ...]]:
    """The X gate on ``wire`` and the gates of ``COEFF_GATES[coeff]`` on it (none for 0), built once and shared.

    The phase network puts the X before the phase gates, a segmented run of the pipelines after them.
    """
    return Gate(GateKind.X, wire), tuple(Gate(kind, wire) for kind in COEFF_GATES.get(coeff, ()))


def _pivot(rows: list[int] | dict[int, int], cols: int, candidates: tuple[int, ...]) -> int:
    """Pivot row, of the ascending ``candidates``, to split the columns in bitset ``cols``; ``rows[j]`` holds row j's.

    Among rows that split the columns properly (both cofactors nonempty), the one
    with the most ones wins, ties to the smaller row: the 1-cofactor is where
    CNOT work is shared, so it is the side worth growing. If every row is
    constant across the columns, the smallest all-ones row is preferred (its
    1-cofactor keeps the whole set and assigns a target); failing that, the
    smallest candidate row. :func:`phase_nw_synth` never reaches that last case,
    but it keeps the rule total over arbitrary columns, as its tests use it.
    """
    total = cols.bit_count()
    best: tuple[int, int] | None = None
    fallback_one = None
    for j in candidates:
        ones = (rows[j] & cols).bit_count()
        if 0 < ones < total:
            if best is None or ones > best[0]:
                best = (ones, j)
        elif ones == total and fallback_one is None:
            fallback_one = j
    if best is not None:
        return best[1]
    if fallback_one is not None:
        return fallback_one
    return candidates[0]


def phase_nw_synth(
    p: PhasePolySet,
    g: ConnectivityGraph,
    trace: Callable[..., None] | None = None,
    budget: float = math.inf,
) -> tuple[Circuit, AugmentedTransform]:
    """Synthesize a connectivity-valid phase polynomial network for ``p``.

    Every input term's parity appears on some wire immediately before the phase
    gate its coefficient dictates (preceded by an X when the term carries the
    flip bit relative to the wire). Returns the circuit and its residual linear
    action; callers compose the latter away with :func:`linear_tf_synth`.
    Set-up costs O(terms) beyond the wire states: the single-variable terms are
    placed in sorted (wire, bit) order. The rest is the cofactor splits and
    Steiner-tree expansions of the multi-variable terms, so input without such
    a term does no further work. A constant-only parity, or one over variables
    past the graph's size, is a ValueError.
    ``trace``, when given, is called once per Steiner-tree expansion as
    ``trace("steiner", root=, terminals=, cnots=, placements=)``: the CNOTs it
    emitted and the X and phase gates placed right after them. The gates before
    the first expansion place the single-variable terms and hold no CNOT.
    :class:`~cnotsynth.linalg.OverBudget` is raised, in place of the
    expansion's trace event and all later work, by the first expansion whose
    CNOTs bring the circuit's count to ``budget`` (at once when ``budget`` is
    at most 0): exactly when the call without a budget returns at least
    ``budget`` CNOTs. Below that the result and the trace events are the same.
    """
    if g.num_vertices == 0:
        raise ValueError("connectivity graph is empty")
    n = g.num_vertices
    wires = [1 << i for i in range(1, n + 1)]
    rows = [0] * (n + 1)  # rows[j]: the terms whose parity holds wire j; rows[0] unused
    flips: list[bool] = []  # each multi-variable term's flip bit
    coeffs: list[int] = []  # each multi-variable term's Z8 coefficient
    gates: list[Gate] = []
    left = budget  # CNOTs still to emit before the budget is reached

    def place(wire: int, bit: bool, coeff: int) -> tuple[Gate, ...]:
        x, placed = phase_gates(wire, coeff)
        if bool(wires[wire - 1] & CONST_BIT) != bit:
            wires[wire - 1] ^= CONST_BIT
            placed = (x, *placed)
        gates.extend(placed)
        return placed

    singles: dict[tuple[int, bool], int] = {}  # (wire, bit) -> coefficient
    for coeff, parity in p.columns:
        mask, bit = parity & ~CONST_BIT, bool(parity & CONST_BIT)
        if mask >> (n + 1):
            raise ValueError(f"parity {format_parity(parity)} uses variables beyond x{n}")
        if not mask:  # a global phase, with no wire to place it on
            raise ValueError(f"phase term ({coeff}, {format_parity(parity)}) is constant-only")
        if mask.bit_count() == 1:
            singles[(mask.bit_length() - 1, bit)] = coeff
        else:  # numbered from 0 in input order, entered in the rows
            term = 1 << len(coeffs)
            while mask:
                rows[(mask & -mask).bit_length() - 1] |= term
                mask &= mask - 1
            flips.append(bit)
            coeffs.append(coeff)
    for i, bit in sorted(singles):  # by wire, and on a wire the plain term before the X of its complement
        place(i, bit, singles[(i, bit)])
    if left <= 0:
        raise OverBudget(f"phase network budget {budget} is not positive")

    # a frame: (bitset of its terms, rows not yet split on along its branch ascending, target or None until the
    # branch enters a 1-cofactor); the zero-cofactor is pushed last, so it is popped next: the invariant of the
    # module docstring, which rests on that order, leaves a candidate row for every frame popped with live columns
    stack = [((1 << len(coeffs)) - 1, tuple(range(1, n + 1)), None)] if coeffs else []
    while stack:
        cols, candidates, target = stack.pop()
        # the rows but the target's that hold all the columns (rows[0] is 0, cols not) are collected onto it
        others = [k for k, r in enumerate(rows) if r & cols == cols and k != target] if target else []
        if others:
            if len(others) == 1:  # one path, from the other terminal: its memoized route
                (leaf,) = others
                cnots = _route(g, leaf, target)[1]
                paths = [(leaf, (target,), ())]
            else:
                paths = _subtrees(g, others + [target], target, 4)[::-1]  # ROW-OP's path per leaf, last first
                cnots = [cnot(u, v) for _, _, edges in paths for u, v in edges]
            left -= len(cnots)
            if left <= 0:
                raise OverBudget("phase network reached its CNOT budget")
            gates += cnots
            for leaf, (top,), _ in paths:  # the passes restore the interior: top gains leaf
                wires[top - 1] ^= wires[leaf - 1]
                rows[leaf] ^= rows[top]
            ones = twos = 0  # the columns with at least one, at least two 1s
            for r in rows:
                twos |= ones & r
                ones |= r
            single = ones & ~twos
            placements: list[Gate] = []
            if single:  # the popped frame's columns only: a stacked column keeps two 1s (module docstring)
                at = {}  # each single column -> the one row holding it, in one sweep
                for j, r in enumerate(rows):
                    r &= single
                    while r:
                        at[(r & -r).bit_length() - 1] = j
                        r &= r - 1
                for k in sorted(at):
                    placements += place(at[k], flips[k], coeffs[k])
                cols &= ~single
                rows[:] = [r & ~single for r in rows]
            if trace:
                terminals = frozenset([target, *others])
                trace("steiner", root=target, terminals=terminals, cnots=list(cnots), placements=placements)
        if not cols:
            continue
        if not candidates:
            raise AssertionError("cofactor invariant broken: a popped frame has live columns and no candidate row")
        j = _pivot(rows, cols, candidates)
        i = candidates.index(j)
        rest = candidates[:i] + candidates[i + 1 :]
        ones, zeros = cols & rows[j], cols & ~rows[j]
        if ones:
            stack.append((ones, rest, j if target is None else target))
        if zeros:
            stack.append((zeros, rest, target))
    return Circuit.trusted(n, tuple(gates)), AugmentedTransform(n, wires)
