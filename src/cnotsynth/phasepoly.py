"""Sum-over-paths bookkeeping for Clifford+T circuits.

Wire states and parity terms are parity ints (see :mod:`cnotsynth.linalg`):
bit i is path variable x_i, bit 0 the affine constant. For H-free circuits the
state lives over x_1..x_n; every H gate replaces its wire's state with a fresh
variable x_{n+j} and records the states immediately before and after, which is
what the phase-partitioned pipeline slices on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import PHASE_COEFF, Circuit, GateKind
from .linalg import CONST_BIT, ParityMatrix, f2_solve, format_parity


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

    def discard(self, parity: int) -> None:
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
    for a fresh variable. :func:`uncomputable_terms` relies on it.
    """

    pos: int
    q_in: tuple[int, ...]
    q_out: tuple[int, ...]


@dataclass(frozen=True)
class SlicedExtraction:
    terms: PhasePolySet
    state: tuple[int, ...]
    records: tuple[HSliceRecord, ...]
    num_vars: int  # n + number of H gates


def extract_sliced(c: Circuit) -> SlicedExtraction:
    """Full-circuit extraction where each H gate introduces a fresh path variable."""
    n = c.num_qubits
    terms = PhasePolySet()
    state = list(identity_state(n))
    records: list[HSliceRecord] = []
    fresh = n
    for g in c.gates:
        if g.kind is GateKind.H:
            fresh += 1
            before = tuple(state)
            state[g.target - 1] = 1 << fresh
            records.append(HSliceRecord(g.target, before, tuple(state)))
        else:
            _fold_gate(state, terms, g)
    return SlicedExtraction(terms, tuple(state), tuple(records), fresh)


def uncomputable_terms(p: PhasePolySet, h: HSliceRecord) -> PhasePolySet:
    """Terms expressible before the H gate but not after it.

    Requires ``h`` as :func:`extract_sliced` builds it: the rows of ``q_in``
    linearly independent, and the state after the H equal to ``q_in`` but for
    a fresh variable at ``pos``; only ``q_in`` and ``pos`` are read. Under that
    precondition a term stops being expressible exactly when its unique
    expression over ``q_in`` uses row ``pos``, so one solve decides. A
    hand-built record that breaks it gets an answer that may differ from the
    before/after definition, with no error. The affine constant never blocks
    realizability (an X gate supplies it).
    """
    terms = p.terms()
    combos = f2_solve(list(h.q_in), [parity for _, parity in terms])
    return PhasePolySet(
        term for term, combo in zip(terms, combos) if combo is not None and combo >> h.pos & 1
    )


def rebase(p: PhasePolySet, basis: tuple[int, ...]) -> ParityMatrix:
    """Rewrite each parity as an XOR of the basis rows, as a wire-indexed matrix.

    The matrix column for a term selects the wires whose basis rows XOR to the
    term's variable part; any constant mismatch goes into the column's flip bit.
    Raises ValueError when a term's variable part lies outside the span.
    """
    terms = p.terms()
    combos = f2_solve(list(basis), [parity for _, parity in terms])
    for (_, parity), combo in zip(terms, combos):
        if combo is None:
            raise ValueError(f"parity {format_parity(parity)} is outside the basis span")
    return ParityMatrix.from_terms(len(basis), [(c, combo) for (c, _), combo in zip(terms, combos)])


def dump_phasepoly(p: PhasePolySet) -> str:
    """One ``<coefficient> : <parity>`` line per term, in set order."""
    return "\n".join(f"{c} : {format_parity(parity)}" for c, parity in p.terms()) + "\n"
