import random

import numpy as np
import pytest

from cnotsynth.circuit import Circuit, Gate, GateKind, cnot
from cnotsynth.linalg import CONST_BIT, transform_of_circuit
from cnotsynth.verify import (
    apply_circuit,
    circuit_unitary,
    equivalent_up_to_phase,
    phase_poly_equal,
    unitaries_equal_up_to_phase,
)


# -- independent Kronecker-product oracle ---------------------------------------

_I2 = np.eye(2)
_W = np.exp(1j * np.pi / 4)
_MATS = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]]),
    GateKind.Z: np.diag([1, -1]).astype(complex),
    GateKind.H: np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    GateKind.S: np.diag([1, 1j]),
    GateKind.SDG: np.diag([1, -1j]),
    GateKind.T: np.diag([1, _W]),
    GateKind.TDG: np.diag([1, _W.conjugate()]),
}


def kron_unitary(c: Circuit) -> np.ndarray:
    """Build the unitary gate by gate with explicit Kronecker products."""
    n = c.num_qubits
    u = np.eye(2**n, dtype=complex)
    for g in c.gates:
        if g.kind is GateKind.CNOT:
            full = np.zeros((2**n, 2**n), dtype=complex)
            for basis in range(2**n):
                bits = [(basis >> (n - 1 - q)) & 1 for q in range(n)]
                if bits[g.control - 1]:
                    bits[g.target - 1] ^= 1
                out = sum(b << (n - 1 - q) for q, b in enumerate(bits))
                full[out, basis] = 1.0
        else:
            full = np.eye(1, dtype=complex)
            for q in range(1, n + 1):
                full = np.kron(full, _MATS[g.kind] if q == g.target else _I2)
        u = full @ u
    return u


def _random_circuit(rng, n, length, kinds=None):
    kinds = kinds or [k for k in GateKind if k is not GateKind.CNOT]
    gates = []
    for _ in range(length):
        if n > 1 and rng.random() < 0.4:
            c, t = rng.sample(range(1, n + 1), 2)
            gates.append(cnot(c, t))
        else:
            gates.append(Gate(rng.choice(kinds), rng.randint(1, n)))
    return Circuit(n, tuple(gates))


def test_simulator_matches_kron_oracle():
    rng = random.Random(99)
    for _ in range(25):
        c = _random_circuit(rng, rng.randint(1, 4), 10)
        assert np.allclose(circuit_unitary(c), kron_unitary(c), atol=1e-12)


def test_norm_preserved():
    rng = random.Random(4)
    for _ in range(10):
        c = _random_circuit(rng, 5, 40)
        psi = np.zeros((2,) * 5, dtype=complex)
        psi[(0,) * 5] = 1.0
        out = apply_circuit(c, psi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9


# -- linear action ----------------------------------------------------------------


def test_linear_action_empty():
    a = transform_of_circuit(Circuit(3, ()))
    assert a.is_identity()


def test_linear_action_rejects_phase_gates():
    with pytest.raises(ValueError):
        transform_of_circuit(Circuit(1, (Gate(GateKind.T, 1),)))


def test_linear_action_matches_permutation():
    # the dense unitary of a {CNOT, X} circuit is a basis permutation that must
    # agree with the affine map predicted by the transform
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 6)
        c = _random_circuit(rng, n, 15, kinds=[GateKind.X])
        a = transform_of_circuit(c)
        u = circuit_unitary(c)
        for basis in range(2**n):
            bits = [(basis >> (n - q)) & 1 for q in range(1, n + 1)]
            out_bits = []
            for i in range(1, n + 1):
                row = a.rows[i - 1]
                acc = 1 if row & CONST_BIT else 0
                for j in range(1, n + 1):
                    if row >> j & 1:
                        acc ^= bits[j - 1]
                out_bits.append(acc)
            out = sum(b << (n - 1 - q) for q, b in enumerate(out_bits))
            col = u[:, basis]
            assert abs(col[out] - 1.0) < 1e-9


# -- unitary equivalence ------------------------------------------------------------


def test_self_equivalence():
    c = Circuit(2, (cnot(1, 2), Gate(GateKind.T, 1)))
    assert equivalent_up_to_phase(c, c)


def test_s_equals_t_squared():
    tt = Circuit(1, (Gate(GateKind.T, 1), Gate(GateKind.T, 1)))
    s = Circuit(1, (Gate(GateKind.S, 1),))
    assert equivalent_up_to_phase(tt, s)
    # and Z = T^4
    tttt = Circuit(1, (Gate(GateKind.T, 1),) * 4)
    assert equivalent_up_to_phase(tttt, Circuit(1, (Gate(GateKind.Z, 1),)))


def test_t_not_tdg():
    t = Circuit(1, (Gate(GateKind.T, 1),))
    tdg = Circuit(1, (Gate(GateKind.TDG, 1),))
    assert not equivalent_up_to_phase(t, tdg)


def test_global_phase_ignored():
    # Y versus its phase-free surrogate X then Z differ only by a phase i
    y = Circuit(1, (Gate(GateKind.Y, 1),))
    xz = Circuit(1, (Gate(GateKind.Z, 1), Gate(GateKind.X, 1)))
    assert equivalent_up_to_phase(y, xz)


def test_size_cap():
    big = Circuit(13, ())
    with pytest.raises(ValueError):
        equivalent_up_to_phase(big, big)


def test_unitary_comparison_shapes():
    assert not unitaries_equal_up_to_phase(np.eye(2), np.eye(4))


# -- phase polynomial comparison ------------------------------------------------------


def test_commuting_phase_gates_equal():
    a = Circuit(1, (Gate(GateKind.T, 1), Gate(GateKind.S, 1)))
    b = Circuit(1, (Gate(GateKind.S, 1), Gate(GateKind.T, 1)))
    assert phase_poly_equal(a, b)


def test_cnot_t_order_matters():
    a = Circuit(2, (cnot(1, 2), Gate(GateKind.T, 2)))
    b = Circuit(2, (Gate(GateKind.T, 2), cnot(1, 2)))
    assert not phase_poly_equal(a, b)


_CANCELING = [
    (GateKind.T, GateKind.TDG),
    (GateKind.S, GateKind.SDG),
    (GateKind.Z, GateKind.Z),
]


def with_canceling_pairs(c: Circuit, rng) -> Circuit:
    """Insert phase pairs that merge to coefficient 0: same (P, Q), different gates."""
    gates = list(c.gates)
    for _ in range(rng.randint(1, 3)):
        a, b = _CANCELING[rng.randrange(len(_CANCELING))]
        q = rng.randint(1, c.num_qubits)
        pos = rng.randint(0, len(gates))
        gates[pos:pos] = [Gate(a, q), Gate(b, q)]
    return Circuit(c.num_qubits, tuple(gates))


def test_phase_poly_equal_implies_unitary_equal():
    # soundness direction of the characterization, checked empirically
    rng = random.Random(2026)
    hfree = [k for k in GateKind if k not in (GateKind.H, GateKind.CNOT)]
    agreements = 0
    for _ in range(120):
        n = rng.randint(1, 5)
        c1 = _random_circuit(rng, n, 12, kinds=hfree)
        c2 = (
            with_canceling_pairs(c1, rng)
            if rng.random() < 0.6
            else _random_circuit(rng, n, 12, kinds=hfree)
        )
        if phase_poly_equal(c1, c2):
            agreements += 1
            assert equivalent_up_to_phase(c1, c2)
    assert agreements > 40  # the implication was actually exercised
