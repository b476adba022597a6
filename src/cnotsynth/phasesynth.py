"""Gray-code-style synthesis of phase polynomial networks under connectivity constraints.

Given a parity matrix, the synthesizer explores cofactors of the column set on a
stack: splitting on a pivot row groups columns that share a value there, so the
CNOTs steering a shared partial parity onto a target wire are paid for once.
Whenever a frame is popped with a concrete target wire, the rows on which all of
its columns agree with a 1 are collected onto that wire along a Steiner tree
(ROW-OP in its path-per-leaf mode). Columns reduced to a single 1 are realized:
the phase gate selected by their coefficient (with a leading X when the wire's
current flip bit disagrees with the term's) lands on the realizing wire, and the
column is deleted wherever it lives in the stack.

Column bookkeeping is dual to the wire updates: a column expresses its parity
over the *current* wire states, so CNOT(c, t) on the wires rewrites columns by
adding row t into row c. An expansion cuts its tree into one path per leaf and
emits each path's four traversals, which restore every interior wire: the
path's net effect is that its top wire gains its leaf wire, so the wires and
the columns take that one update per path, not one per CNOT.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .circuit import Circuit, Gate, GateKind, cnot
from .linalg import CONST_BIT, AugmentedTransform, OverBudget, ParityMatrix, format_parity
from .linsynth import _cut
from .topology import ConnectivityGraph, steiner_tree

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


@dataclass
class _Column:
    mask: int  # wire mask over the current wire basis (bits 1..n)
    bit: bool  # bit-flip of the term, fixed
    coeff: int  # Z8 coefficient, fixed


@dataclass
class _Frame:
    cols: list[_Column]
    candidates: frozenset[int]  # rows not yet used as pivot on this branch
    target: int | None  # epsilon until the branch enters a 1-cofactor


def select_pivot(masks: list[int], candidates: frozenset[int]) -> int:
    """Pivot row for splitting a cofactor.

    Among rows that split the columns properly (both cofactors nonempty), the one
    with the most ones wins, ties to the smaller row: the 1-cofactor is where
    CNOT work is shared, so it is the side worth growing. If every row is
    constant across the columns, the smallest all-ones row is preferred (its
    1-cofactor keeps the whole set and assigns a target); failing that, the
    smallest candidate row.
    """
    if not masks or not candidates:
        raise ValueError("select_pivot needs columns and candidate rows")
    best: tuple[int, int] | None = None
    fallback_one = None
    for j in sorted(candidates):
        ones = sum(1 for m in masks if m >> j & 1)
        if 0 < ones < len(masks):
            if best is None or ones > best[0]:
                best = (ones, j)
        elif ones == len(masks) and fallback_one is None:
            fallback_one = j
    if best is not None:
        return best[1]
    if fallback_one is not None:
        return fallback_one
    return min(candidates)


class PhaseSynthesizer:
    """Stateful driver of the cofactor stack; see the module docstring for the scheme."""

    def __init__(
        self,
        p: ParityMatrix,
        g: ConnectivityGraph,
        trace: Callable[..., None] | None = None,
        budget: float = math.inf,
    ):
        if g.num_vertices == 0:
            raise ValueError("connectivity graph is empty")
        self.n = g.num_vertices
        self.g = g
        self.wires = [1 << i for i in range(1, g.num_vertices + 1)]
        self.gates: list[Gate] = []
        self.stack: list[_Frame] = []
        self.trace = trace
        self.left = budget  # CNOTs still to emit before the budget is reached
        self._place_single_variable_terms(p)
        if self.left <= 0:
            raise OverBudget(f"phase network budget {budget} is not positive")

    # -- placement helpers -------------------------------------------------

    def _place(self, wire: int, bit: bool, coeff: int) -> list[Gate]:
        placed = [Gate(kind, wire) for kind in COEFF_GATES[coeff]]
        if bool(self.wires[wire - 1] & CONST_BIT) != bit:
            self.wires[wire - 1] ^= CONST_BIT
            placed.insert(0, Gate(GateKind.X, wire))
        self.gates += placed
        return placed

    def _place_single_variable_terms(self, p: ParityMatrix) -> None:
        remaining = []
        singles: dict[tuple[int, bool], int] = {}  # (wire, bit) -> coefficient
        for coeff, parity in p.columns:
            mask, bit = parity & ~CONST_BIT, bool(parity & CONST_BIT)
            if mask >> (self.n + 1):
                raise ValueError(f"parity {format_parity(parity)} uses variables beyond x{self.n}")
            if mask.bit_count() == 1:
                singles[(mask.bit_length() - 1, bit)] = coeff
            else:
                remaining.append(_Column(mask, bit, coeff))
        # by wire, and on a wire the plain term before the X of its complement
        for i, bit in sorted(singles):
            self._place(i, bit, singles[(i, bit)])
        if remaining:
            self.stack.append(_Frame(remaining, frozenset(range(1, self.n + 1)), None))

    # -- main loop ---------------------------------------------------------

    def fix_columns(self, frame: _Frame) -> None:
        """Collect the frame's all-ones rows onto its target wire, then realize columns."""
        if frame.target is None or not frame.cols:
            return
        common = reduce(and_, (col.mask for col in frame.cols))
        s_prime = {k for k in range(1, self.n + 1) if k != frame.target and common >> k & 1}
        if s_prime:
            self._expand(frame, frame.target, s_prime | {frame.target})

    def _expand(self, frame: _Frame, root: int, terminals: set[int]) -> None:
        tree = steiner_tree(self.g, terminals, root)  # always on the full graph
        paths = _cut(tree, 4)[::-1]  # ROW-OP's path per leaf, from the last path
        cnots = [cnot(u, v) for _, _, edges in paths for u, v in edges]
        self.left -= len(cnots)
        if self.left <= 0:
            raise OverBudget("phase network reached its CNOT budget")
        self.gates += cnots
        frames = (frame, *self.stack)
        cols = [col for f in frames for col in f.cols]
        wires = self.wires
        for leaf, (top,), _ in paths:  # the passes restore the interior: top gains leaf
            wires[top - 1] ^= wires[leaf - 1]
            for col in cols:
                if col.mask >> top & 1:
                    col.mask ^= 1 << leaf
        placements = []
        for col in cols:
            if col.mask.bit_count() == 1:
                placements += self._place(col.mask.bit_length() - 1, col.bit, col.coeff)
        if placements:
            for f in frames:
                f.cols = [col for col in f.cols if col.mask.bit_count() != 1]
        if self.trace:
            self.trace("steiner", root=root, terminals=tree.terminals, cnots=cnots, placements=placements)

    def _force_realize(self, frame: _Frame) -> None:
        # A frame ran out of pivot rows with live columns: realize them one by
        # one on a support wire. Unreachable through normal splitting on inputs
        # produced by extraction, but keeps arbitrary inputs safe.
        while frame.cols:
            col = frame.cols[0]
            support = {i for i in range(1, self.n + 1) if col.mask >> i & 1}
            root = frame.target if frame.target in support else min(support)
            self._expand(frame, root, support)
            if col in frame.cols:
                raise AssertionError("forced realization failed to fix a column")

    def run(self) -> None:
        while self.stack:
            frame = self.stack.pop()
            self.fix_columns(frame)
            if not frame.cols:
                continue
            if not frame.candidates:
                self._force_realize(frame)
                continue
            j = select_pivot([c.mask for c in frame.cols], frame.candidates)
            rest = frame.candidates - {j}
            ones = [c for c in frame.cols if c.mask >> j & 1]
            zeros = [c for c in frame.cols if not c.mask >> j & 1]
            if ones:
                self.stack.append(_Frame(ones, rest, j if frame.target is None else frame.target))
            if zeros:
                self.stack.append(_Frame(zeros, rest, frame.target))


def phase_nw_synth(
    p: ParityMatrix,
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
    a term does no further work. A parity over variables past the graph's
    size is a ValueError.
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
    synth = PhaseSynthesizer(p, g, trace, budget)
    synth.run()
    return Circuit.trusted(g.num_vertices, tuple(synth.gates)), AugmentedTransform(g.num_vertices, list(synth.wires))
