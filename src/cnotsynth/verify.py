"""Independent correctness oracles: dense simulation and phase-poly equality.

The dense simulator uses the convention |x1 x2 ... xn> with qubit 1 on the most
significant axis, T = diag(1, e^{i pi/4}), and CNOT|c,t> = |c, c XOR t>.

It works on one array of 2^n rows (times any batch axes) in the sum-over-paths
form. Each run of :func:`~cnotsynth.phasepoly.extract_sliced`, folded into its
``"own"`` partition, maps |x> to i^{#Y} omega^{f(x)} |Q(x)>, with f its terms and
Q its map, both over the wires at the run's start; it costs one phase-vector multiply and one row gather, each
skipped when it is the identity. The H that ends a run is an unnormalised
in-place butterfly. The 1/sqrt(2) per H and the i per Y are one scalar applied
at the end. :func:`equivalent_up_to_phase` applies the second circuit's inverse
to the first circuit's unitary and tests the product against e^{i theta} I in
one 2^n x 2^n array. The runs both circuits share at either end only conjugate
the rest, so they drop out first: on verify-10q (9-10 qubits, 20 H per circuit)
57 of 3,357 H are left at seed 1, and a pair takes about 0.9 ms, not 39 ms
(medians of 10 seeds, 2-CPU shared x86 host).
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate, GateKind, count_gates
from .linalg import CONST_BIT
from .phasepoly import extract_hfree, extract_sliced, identity_state

MAX_DENSE_QUBITS = 12

_R = np.sqrt(0.5)
_OMEGA_POWERS = np.array([1, _R + _R * 1j, 1j, -_R + _R * 1j, -1, -_R - _R * 1j, -1j, _R - _R * 1j])
# parity of every row index below 2^MAX_DENSE_QUBITS: parity(x + 2^k) = parity(x) ^ 1 for x < 2^k
_PARITY = np.zeros(1, dtype=np.int64)
for _ in range(MAX_DENSE_QUBITS):
    _PARITY = np.concatenate([_PARITY, _PARITY ^ 1])
# the unnormalised butterfly grows entries by sqrt(2) per H; rescale before float64 overflows
_MAX_DEFERRED_H = 1024
_INVERSE = {
    GateKind.T: GateKind.TDG,
    GateKind.TDG: GateKind.T,
    GateKind.S: GateKind.SDG,
    GateKind.SDG: GateKind.S,
}
# the final check scans the product in slices of this many entries, so np.abs makes no full-size temporary
_CHECK_BLOCK = 1 << 16
# the largest entry of U(c2)^-1 U(c1) - e^{i theta} I that still counts as equal
_TOL = 1e-7


def _check_size(n: int) -> None:
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense simulation capped at {MAX_DENSE_QUBITS} qubits, got {n}")


@lru_cache(maxsize=1)
def _check_arrays(dim: int, thread: int) -> tuple[np.ndarray, np.ndarray]:
    """A check's two complex dim x dim arrays: the process keeps one pair, for the last size and thread to ask.

    A check of another size or on another thread replaces it. Allocated and freed per check, how much of them
    malloc left resident varied with other small allocations, and so did peak memory, by up to 12 MB at 9-10 qubits.
    """
    return np.empty((dim, dim), dtype=complex), np.empty((dim, dim), dtype=complex)


def _parity_values(p: int, n: int, rows: np.ndarray) -> np.ndarray:
    """Parity int ``p`` evaluated on every basis row (qubit 1 the most significant bit)."""
    mask = sum(1 << (n - j) for j in range(1, n + 1) if p >> j & 1)
    return _PARITY[rows & mask] ^ (p & CONST_BIT)


def _apply(c: Circuit, psi: np.ndarray, spare: np.ndarray | None) -> np.ndarray:
    """Apply ``c`` to rows ``psi`` of shape (2^n, batch), in place where it can; use the returned array.

    ``spare`` is a buffer of ``psi``'s shape for the row gather, allocated on first use.
    """
    n = c.num_qubits
    rows = np.arange(2**n)
    identity = identity_state(n)
    pending_h = 0
    for s in extract_sliced(c, "own"):
        if s.terms:
            exponent = sum(coeff * _parity_values(p, n, rows) for coeff, p in s.terms.columns)
            psi *= _OMEGA_POWERS[exponent % 8][:, None]
        if s.map != identity:
            dest = sum(_parity_values(p, n, rows) << (n - q) for q, p in enumerate(s.map, 1))
            src = np.empty_like(rows)
            src[dest] = rows
            if spare is None:
                spare = np.empty_like(psi)
            # src is a permutation, so "clip" changes no index; unlike "raise" it writes out unbuffered
            np.take(psi, src, axis=0, out=spare, mode="clip")
            psi, spare = spare, psi
        if s.h is not None:
            v = psi.reshape(2 ** (s.h - 1), 2, -1)
            a, b = v[:, 0], v[:, 1]
            a += b
            b *= -2
            b += a  # (a, b) -> (a + b, a - b)
            pending_h += 1
            if pending_h == _MAX_DEFERRED_H:
                psi *= 2.0 ** (-_MAX_DEFERRED_H / 2)
                pending_h = 0
    scale = (1, 1j, -1, -1j)[count_gates(c, GateKind.Y) % 4] * 2.0 ** (-pending_h / 2)
    if scale != 1:
        psi *= scale
    return psi


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary, built by applying the circuit to every basis state."""
    _check_size(c.num_qubits)
    return _apply(c, np.eye(2**c.num_qubits, dtype=complex), None)


def _inverse(gates: tuple[Gate, ...]) -> tuple[Gate, ...]:
    """The gates reversed, with T <-> TDG and S <-> SDG; every other gate is its own inverse."""
    return tuple(Gate(_INVERSE[g.kind], g.target) if g.kind in _INVERSE else g for g in reversed(gates))


def _unshared_middles(c1: Circuit, c2: Circuit) -> tuple[tuple[Gate, ...], tuple[Gate, ...]] | None:
    """The gates of ``c1`` and ``c2`` left once their shared end runs are cut; None if every run is shared.

    From the front, (run, H) pairs go while both runs have equal own ``terms``
    and ``map`` and the H is on the same wire; from the back, (H, run) pairs
    alike. Each end stops at its first mismatch; at most min(H1, H2) H gates go.
    """
    k1, k2 = ([(s.h, s.terms, s.map) for s in extract_sliced(c, "own")] for c in (c1, c2))
    if k1 == k2:
        return None
    cap, lead, trail = min(len(k1), len(k2)) - 1, 0, 0
    while lead < cap and k1[lead] == k2[lead]:
        lead += 1
    while lead + trail < cap and k1[-1 - trail][1:] == k2[-1 - trail][1:] and k1[-2 - trail][0] == k2[-2 - trail][0]:
        trail += 1
    cuts = [[-1, *(k for k, g in enumerate(c.gates) if g.kind is GateKind.H), len(c.gates)] for c in (c1, c2)]
    return tuple(c.gates[h[lead] + 1 : h[-1 - trail]] for c, h in zip((c1, c2), cuts))


def equivalent_up_to_phase(c1: Circuit, c2: Circuit) -> bool:
    """Dense check that U(c2)^-1 U(c1) = e^{i theta} I within ``_TOL`` per entry (n <= 12).

    A run acts as i^{#Y} omega^{f(x)} |Q(x)>, f its own ``terms`` and Q its
    ``map`` over its own start wires, so runs with equal fields are one unitary
    up to a phase. With c1 = P M1 S and c2 = P' M2 S' in time order, P, P' and
    S, S' equal run by run and H by H (:func:`_unshared_middles`),
    U(c2)^-1 U(c1) = e^{i phi} U(P)^-1 [U(M2)^-1 U(M1)] U(P) is e^{i theta} I
    exactly when the bracket is. So one 2^n x 2^n array and the gather buffer
    (:func:`_check_arrays`) take the identity, then M1 and M2's inverse, in one
    pass; none is touched when every run and H matches.
    """
    if c1.num_qubits != c2.num_qubits:
        raise ValueError("circuits must have the same qubit count")
    n = c1.num_qubits
    _check_size(n)
    if (middles := _unshared_middles(c1, c2)) is None:
        return True
    dim = 2**n
    # above 10 qubits (2 x 64 MB and more) the arrays are freed after the check
    w, spare = _check_arrays(dim, threading.get_ident()) if n <= 10 else (np.empty((dim, dim), dtype=complex), None)
    w.fill(0)
    w.flat[:: dim + 1] = 1
    w = _apply(Circuit.trusted(n, middles[0] + _inverse(middles[1])), w, spare)
    phase = w[0, 0]
    if abs(phase) < _TOL:
        return False
    w.flat[:: dim + 1] -= phase / abs(phase)
    step = max(1, _CHECK_BLOCK // dim)
    return all(np.abs(w[i : i + step]).max() <= _TOL for i in range(0, dim, step))


def phase_poly_equal(c1: Circuit, c2: Circuit) -> bool:
    """True iff two H-free circuits have equal phase polynomial sets and qubit states."""
    if c1.num_qubits != c2.num_qubits:
        return False
    p1, q1 = extract_hfree(c1)
    p2, q2 = extract_hfree(c2)
    return p1 == p2 and q1 == q2
