"""Sum-over-paths bookkeeping for Clifford+T circuits.

Wire states and parity terms are parity ints (see :mod:`cnotsynth.linalg`):
bit i is path variable x_i, bit 0 the affine constant. For H-free circuits the
state lives over x_1..x_n; every H gate replaces its wire's state with a fresh
variable x_{n+j} and records the states immediately before and after, which is
what the phase-partitioned pipeline slices on. Dual rows kept beside the states
rewrite any term of their span over them with one AND per row, so no F2
reduction is needed to place or rebase a term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import PHASE_COEFF, Circuit, GateKind
from .linalg import CONST_BIT, ParityMatrix, format_parity
from .linalg import f2_solve  # noqa: F401  (unused; perfbench's tracer test reads this binding)


class PhasePolySet:
    """Ordered set of (coefficient, parity) pairs with mod-8 merge semantics."""

    def __init__(self, terms=()):
        self._terms: dict[int, int] = {}
        for coeff, parity in terms:
            self.add(coeff, parity)

    def add(self, coeff: int, parity: int) -> None:
        merged = (self._terms.get(parity, 0) + coeff) % 8
        if merged:
            self._terms[parity] = merged
        else:
            self._terms.pop(parity, None)

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(coefficient, parity) pairs in first-appearance order."""
        return tuple((c, p) for p, c in self._terms.items())

    def coefficient(self, parity: int) -> int:
        return self._terms.get(parity, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePolySet):
            return NotImplemented
        return dict(self._terms) == dict(other._terms)

    def __repr__(self) -> str:
        inner = ", ".join(f"({c}, {format_parity(p)})" for c, p in self.terms())
        return f"PhasePolySet({inner})"


def identity_state(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(1, n + 1))


def _fold_gate(state: list[int], terms: PhasePolySet, g) -> None:
    kind = g.kind
    if kind is GateKind.CNOT:
        state[g.target - 1] ^= state[g.control - 1]
    elif kind is GateKind.X:
        state[g.target - 1] ^= CONST_BIT
    elif kind is GateKind.Y:
        terms.add(PHASE_COEFF[kind], state[g.target - 1])
        state[g.target - 1] ^= CONST_BIT
    elif kind in PHASE_COEFF:
        terms.add(PHASE_COEFF[kind], state[g.target - 1])
    else:
        raise ValueError("H gate not allowed in an H-free extraction")


def extract_hfree(c: Circuit) -> tuple[PhasePolySet, tuple[int, ...]]:
    """Phase-polynomial set and final qubit state of an H-free circuit."""
    terms = PhasePolySet()
    state = list(identity_state(c.num_qubits))
    for g in c.gates:
        _fold_gate(state, terms, g)
    return terms, tuple(state)


@dataclass(frozen=True)
class HSliceRecord:
    """Qubit states around one H gate: before (q_in) and after (q_out).

    q_out differs from q_in only at ``pos``, where a fresh path variable sits.
    The rows of q_in are linearly independent: :func:`extract_sliced` starts
    from the identity, a CNOT adds one row into another and an H swaps a row
    for a fresh variable.

    ``dual_in`` holds the dual rows of q_in, over the variable bits only:
    ``popcount(dual_in[i] & q_in[j])`` is odd exactly when i == j. So a term
    in the span of q_in uses row i in its (unique) expression over q_in exactly
    when its AND with ``dual_in[i]`` has odd parity. The dual rows depend on
    the gate history, not only on q_in, so record equality ignores them.
    """

    pos: int
    q_in: tuple[int, ...]
    q_out: tuple[int, ...]
    dual_in: tuple[int, ...] = field(compare=False)

    @property
    def dual_out(self) -> tuple[int, ...]:
        """The dual rows of q_out: ``dual_in`` with row ``pos`` replaced by the fresh variable."""
        i = self.pos - 1
        return self.dual_in[:i] + (self.q_out[i],) + self.dual_in[i + 1 :]


@dataclass(frozen=True)
class SlicedExtraction:
    terms: PhasePolySet
    state: tuple[int, ...]
    records: tuple[HSliceRecord, ...]
    num_vars: int  # n + number of H gates
    # slice_maps[k]: the state at the end of slice k (before H k, or the final
    # state) written over the state at its start, as f2_solve would return it
    slice_maps: tuple[tuple[int, ...], ...]
    # slice_terms[k]: the terms whose parity a phase gate first touches in
    # slice k; together they are exactly ``terms``
    slice_terms: tuple[PhasePolySet, ...]


def extract_sliced(c: Circuit) -> SlicedExtraction:
    """Full-circuit extraction where each H gate introduces a fresh path variable.

    Beside the wire states it keeps their dual rows (see :class:`HSliceRecord`):
    a CNOT(c, t) adds row t into dual row c, an H sets its wire's dual row to
    the fresh variable. Each slice's own map is the same fold restarted from
    the identity at the slice start.

    Each parity belongs to the slice where a phase gate first touches it, and
    every later coefficient on it is added into that slice's terms, even after
    they cancel to 0. The parity was a wire state in its slice, so it lies in
    the span of that slice's start state.
    """
    n = c.num_qubits
    terms = PhasePolySet()
    state = list(identity_state(n))
    dual = list(identity_state(n))
    local = list(identity_state(n))
    records: list[HSliceRecord] = []
    maps: list[tuple[int, ...]] = []
    slice_terms: list[PhasePolySet] = [PhasePolySet()]
    owner: dict[int, PhasePolySet] = {}
    fresh = n
    for g in c.gates:
        kind = g.kind
        if kind in PHASE_COEFF:
            parity = state[g.target - 1]
            owner.setdefault(parity, slice_terms[-1]).add(PHASE_COEFF[kind], parity)
        elif kind is GateKind.H:
            fresh += 1
            i = g.target - 1
            before = tuple(state)
            dual_in = tuple(dual)
            state[i] = dual[i] = 1 << fresh
            records.append(HSliceRecord(g.target, before, tuple(state), dual_in))
            maps.append(tuple(local))
            local = list(identity_state(n))
            slice_terms.append(PhasePolySet())
            continue
        _fold_gate(state, terms, g)
        if kind is GateKind.CNOT:
            dual[g.control - 1] ^= dual[g.target - 1]
            local[g.target - 1] ^= local[g.control - 1]
        elif kind is GateKind.X or kind is GateKind.Y:
            local[g.target - 1] ^= CONST_BIT
    maps.append(tuple(local))
    return SlicedExtraction(terms, tuple(state), tuple(records), fresh, tuple(maps), tuple(slice_terms))


def uncomputable_terms(p: PhasePolySet, h: HSliceRecord) -> PhasePolySet:
    """Terms expressible before the H gate but not after it.

    This is the paper's CNOT-OPT-B rule, which emits each term at the last H
    before which it is still computable. No pipeline calls it any more:
    :func:`~cnotsynth.pipeline.cnot_opt_b` places each term in the slice where
    it first appears (``SlicedExtraction.slice_terms``).

    Requires ``h`` as :func:`extract_sliced` builds it (q_in's rows independent,
    ``dual_in`` their dual rows, q_out equal to q_in but for a fresh variable
    at ``pos``) and ``p`` the extraction's terms that no earlier record found
    uncomputable. A term of ``p`` made before the H survived every earlier H,
    so it lies in the span of q_in, and it stops being expressible exactly
    when its expression over q_in uses row ``pos``: one AND with
    ``dual_in[pos]`` decides. A term made after the H lies in the span of the
    other rows of q_in plus variables at least as new as the fresh one, on
    which that AND has even parity, so it is kept. Inputs that break the
    precondition get an answer that may differ from the before/after
    definition, with no error. The affine constant never blocks realizability
    (an X gate supplies it).
    """
    dual = h.dual_in[h.pos - 1]
    return PhasePolySet((coeff, parity) for parity, coeff in p._terms.items() if (parity & dual).bit_count() & 1)


def rebase(p: PhasePolySet, basis: tuple[int, ...], dual: tuple[int, ...]) -> ParityMatrix:
    """Rewrite each parity as an XOR of the basis rows, as a wire-indexed matrix.

    ``dual`` holds the dual rows of ``basis`` (see :class:`HSliceRecord`), so a
    term selects row i when its AND with ``dual[i]`` has odd parity. The matrix
    column for a term selects those wires; its flip bit is the term's constant
    XOR the selected rows' constants, as :func:`~cnotsynth.linalg.f2_solve`
    gives it. Raises ValueError when the selected rows do not XOR to the
    term's variable part, i.e. the term lies outside the span.
    """
    cols = []
    for coeff, parity in p.terms():
        combo = parity & CONST_BIT
        acc = 0
        for i, (row, d) in enumerate(zip(basis, dual), start=1):
            if (parity & d).bit_count() & 1:
                combo ^= (1 << i) | (row & CONST_BIT)
                acc ^= row
        if (acc ^ parity) & ~CONST_BIT:
            raise ValueError(f"parity {format_parity(parity)} is outside the basis span")
        cols.append((coeff, combo))
    return ParityMatrix.from_terms(len(basis), cols)


def dump_phasepoly(p: PhasePolySet) -> str:
    """One ``<coefficient> : <parity>`` line per term, in set order."""
    return "\n".join(f"{c} : {format_parity(parity)}" for c, parity in p.terms()) + "\n"
