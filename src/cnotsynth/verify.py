"""Independent correctness oracles: dense simulation and phase-poly equality.

The dense simulator uses the convention |x1 x2 ... xn> with qubit 1 on the most
significant axis, T = diag(1, e^{i pi/4}), and CNOT|c,t> = |c, c XOR t>.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, GateKind
from .phasepoly import extract_hfree

MAX_DENSE_QUBITS = 12

_OMEGA = np.exp(1j * np.pi / 4)
_PHASES = {
    GateKind.T: _OMEGA,
    GateKind.TDG: _OMEGA.conjugate(),
    GateKind.S: 1j,
    GateKind.SDG: -1j,
    GateKind.Z: -1.0,
}


def _check_size(n: int) -> None:
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense simulation capped at {MAX_DENSE_QUBITS} qubits, got {n}")


def apply_circuit(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply a circuit to a state array of shape (2,)*n (+ optional batch axes).

    The input array is consumed; use the returned array.
    """
    n = c.num_qubits
    _check_size(n)
    psi = state
    for g in c.gates:
        t = g.target - 1
        if g.kind in _PHASES:
            one = [slice(None)] * psi.ndim
            one[t] = 1
            psi[tuple(one)] *= _PHASES[g.kind]
        elif g.kind is GateKind.X:
            psi = np.flip(psi, axis=t)
        elif g.kind is GateKind.Y:
            psi = np.flip(psi, axis=t)
            idx = [slice(None)] * psi.ndim
            idx[t] = 0
            psi[tuple(idx)] *= -1j
            idx[t] = 1
            psi[tuple(idx)] *= 1j
        elif g.kind is GateKind.H:
            zero = [slice(None)] * psi.ndim
            one = [slice(None)] * psi.ndim
            zero[t], one[t] = 0, 1
            a, b = psi[tuple(zero)].copy(), psi[tuple(one)]
            psi[tuple(zero)] = (a + b) / np.sqrt(2)
            psi[tuple(one)] = (a - b) / np.sqrt(2)
        elif g.kind is GateKind.CNOT:
            ctrl = [slice(None)] * psi.ndim
            ctrl[g.control - 1] = 1
            # copy: the flipped view aliases the assignment destination
            sub_axis = t - (1 if t > g.control - 1 else 0)
            psi[tuple(ctrl)] = np.flip(psi[tuple(ctrl)], axis=sub_axis).copy()
        else:  # pragma: no cover
            raise ValueError(f"unsupported gate {g.kind}")
    return psi


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary, built by applying the circuit to every basis state."""
    n = c.num_qubits
    _check_size(n)
    dim = 2**n
    u = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
    u = apply_circuit(c, u)
    return u.reshape(dim, dim)


def unitaries_equal_up_to_phase(u1: np.ndarray, u2: np.ndarray, tol: float = 1e-7) -> bool:
    """True iff u1 = e^{i theta} u2 within ``tol`` max-entry deviation."""
    if u1.shape != u2.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(u1)), u1.shape)
    if abs(u2[idx]) < tol:
        return False
    phase = u2[idx] / u1[idx]
    phase /= abs(phase)
    return bool(np.max(np.abs(u1 * phase - u2)) <= tol)


def equivalent_up_to_phase(c1: Circuit, c2: Circuit, tol: float = 1e-7) -> bool:
    """Dense unitary comparison up to a global phase (n <= 12, practical <= 10)."""
    if c1.num_qubits != c2.num_qubits:
        raise ValueError("circuits must have the same qubit count")
    _check_size(c1.num_qubits)
    return unitaries_equal_up_to_phase(circuit_unitary(c1), circuit_unitary(c2), tol)


def phase_poly_equal(c1: Circuit, c2: Circuit) -> bool:
    """True iff two H-free circuits have equal phase polynomial sets and qubit states."""
    if c1.num_qubits != c2.num_qubits:
        return False
    p1, q1 = extract_hfree(c1)
    p2, q2 = extract_hfree(c2)
    return p1 == p2 and q1 == q2
