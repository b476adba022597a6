"""Sum-over-paths bookkeeping for Clifford+T circuits.

Wire states and parity terms are parity ints (see :mod:`cnotsynth.linalg`):
bit i is path variable x_i, bit 0 the affine constant. The sliced extraction
cuts the circuit at its H gates into the runs the slice-and-build pipelines
rebuild, and folds each run's own map from the identity, so it writes every
phase term over the wires at the start of its run as it goes, and no term
needs an F2 reduction to be placed or rebased. It folds each phase gate into
the one term partition its caller reads: a run's own terms, or the terms whose
parity a phase gate first touches in it. Only the latter folds the whole
circuit's wire state, where each H gives its wire a fresh variable x_{n+j}.
Nothing in the library reads the whole circuit's terms or final state.
"""

from __future__ import annotations

from typing import NamedTuple

from .circuit import PHASE_COEFF, Circuit, Gate, GateKind
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

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(coefficient, parity) pairs in first-appearance order."""
        return tuple((c, p) for p, c in self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePolySet):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        inner = ", ".join(f"({c}, {format_parity(p)})" for c, p in self.terms())
        return f"PhasePolySet({inner})"


def identity_state(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(1, n + 1))


class Slice(NamedTuple):
    """One H-free run of a circuit and what :func:`extract_sliced` folds over it.

    ``gates`` is the run, a slice of the input's gates, and ``h`` the wire of
    the H that ends it (None for the last run). The rest is written over the
    wires at the run's start: ``map`` is the state at its end, as f2_solve
    would return it, and ``terms`` the run's share of the partition the
    extraction was asked for. Under ``"own"`` they are the terms its own phase
    gates make, each at the key its wire then holds; under ``"first"`` the
    terms whose parity a phase gate first touches in this run, and those of
    all runs together are exactly the circuit's terms. ``first_at`` maps each
    key a phase gate of the run touches, cancelled ones included, to the index
    in ``gates`` of the first such gate, where the wire holds exactly that key.
    """

    gates: tuple[Gate, ...]
    h: int | None
    map: tuple[int, ...]
    terms: PhasePolySet
    first_at: dict[int, int]


def extract_sliced(c: Circuit, partition: str) -> tuple[Slice, ...]:
    """The circuit's H-free runs, each a :class:`Slice` folded from the identity at its start.

    Every phase gate's parity is known over the wires at the start of its run,
    the frame of every :class:`Slice`'s terms, and folded into the one
    partition ``partition`` names, ``"own"`` or ``"first"``. Under ``"own"``
    the fold keeps nothing but each run's map, terms and ``first_at``.

    Under ``"first"`` each parity of the whole circuit's wire state, in which
    the j-th H sets its wire to the fresh variable x_{n+j}, belongs to the run
    where a phase gate first touches it, and every later coefficient on it is
    added into that run's term, even after they cancel to 0. Within one run a
    parity and its expression over the start wires determine each other,
    because the start state's rows are independent: the fold starts from the
    identity, a CNOT adds one row into another and an H swaps a row for a fresh variable.
    """
    if partition not in ("own", "first"):
        raise ValueError(f"unknown partition {partition!r}; expected own or first")
    by_first = partition == "first"
    n = c.num_qubits
    gates = c.gates
    identity = identity_state(n)
    state = list(identity)  # under "first": the whole circuit's wire states
    local = list(identity)
    slices: list[Slice] = []
    terms, first_at = PhasePolySet(), {}
    owner: dict[int, tuple[PhasePolySet, int]] = {}  # under "first": parity -> (its run's terms, its key there)
    start = 0
    cx, h, x, y = GateKind.CNOT, GateKind.H, GateKind.X, GateKind.Y  # bound once: each GateKind.<name> costs a lookup
    for k, g in enumerate(gates):
        kind = g.kind
        i = g.target - 1
        if kind is cx:
            local[i] ^= local[g.control - 1]
            if by_first:
                state[i] ^= state[g.control - 1]
            continue
        if kind is h:
            slices.append(Slice(gates[start:k], g.target, tuple(local), terms, first_at))
            if by_first:
                state[i] = 1 << (n + len(slices))  # the j-th H's fresh variable x_{n+j}
            start = k + 1
            local = list(identity)
            terms, first_at = PhasePolySet(), {}
            continue
        if kind is not x:
            key = local[i]
            first_at.setdefault(key, k - start)
            if by_first:
                home, key = owner.setdefault(state[i], (terms, key))
                home.add(PHASE_COEFF[kind], key)
            else:
                terms.add(PHASE_COEFF[kind], key)
        if kind is x or kind is y:
            local[i] ^= CONST_BIT
            if by_first:
                state[i] ^= CONST_BIT
    slices.append(Slice(gates[start:], None, tuple(local), terms, first_at))
    return tuple(slices)


def extract_hfree(c: Circuit) -> tuple[PhasePolySet, tuple[int, ...]]:
    """Phase-polynomial set and final qubit state of an H-free circuit: its one run's ``terms`` and ``map``."""
    only, *rest = extract_sliced(c, "own")
    if rest:
        raise ValueError("H gate not allowed in an H-free extraction")
    return only.terms, only.map


def uncomputable_terms(p: PhasePolySet, q_in: tuple[int, ...], q_out: tuple[int, ...]) -> PhasePolySet:
    """Terms expressible over the states before (q_in) but not after (q_out) an H.

    The paper's CNOT-OPT-B rule. No pipeline calls it:
    :func:`~cnotsynth.pipeline.cnot_opt_b` places each term in the run where it
    first appears (``extract_sliced(c, "first")``).
    The affine constant never blocks realizability (an X gate supplies it).
    """
    terms = p.terms()
    parities = [parity for _, parity in terms]
    before = f2_solve(list(q_in), parities)
    after = f2_solve(list(q_out), parities)
    return PhasePolySet(t for t, b, a in zip(terms, before, after) if b is not None and a is None)


def rebase(p: PhasePolySet, basis: tuple[int, ...]) -> ParityMatrix:
    """Rewrite each parity as an XOR of the basis rows, as a wire-indexed matrix.

    The column of a term is its :func:`~cnotsynth.linalg.f2_solve` combination
    over ``basis``. Raises ValueError when a term lies outside the basis span.
    No pipeline calls it: :func:`extract_sliced` writes every term over its
    slice's start wires as it folds.
    """
    terms = p.terms()
    combos = f2_solve(list(basis), [parity for _, parity in terms])
    if None in combos:
        raise ValueError(f"parity {format_parity(terms[combos.index(None)][1])} is outside the basis span")
    return ParityMatrix.from_terms([(coeff, combo) for (coeff, _), combo in zip(terms, combos)])


def dump_phasepoly(p: PhasePolySet) -> str:
    """One ``<coefficient> : <parity>`` line per term, in set order."""
    return "\n".join(f"{c} : {format_parity(parity)}" for c, parity in p.terms()) + "\n"
