import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cnotsynth import verify
from cnotsynth.circuit import Circuit, Gate, GateKind, cnot
from cnotsynth.linalg import CONST_BIT
from cnotsynth.phasepoly import extract_sliced, transform_of_circuit
from cnotsynth.verify import (
    circuit_unitary,
    equivalent_up_to_phase,
    phase_poly_equal,
)
from tests.conftest import unitaries_equal_up_to_phase


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


def _hfree_heavy_circuit(rng, n, runs, run_length):
    """Long H-free runs, each with at least one Y, separated by single H gates."""
    hfree = [k for k in GateKind if k not in (GateKind.CNOT, GateKind.H)]
    gates = []
    for k in range(runs):
        if k:
            gates.append(Gate(GateKind.H, rng.randint(1, n)))
        run = list(_random_circuit(rng, n, run_length, kinds=hfree).gates)
        run.insert(rng.randrange(len(run) + 1), Gate(GateKind.Y, rng.randint(1, n)))
        gates += run
    return Circuit(n, tuple(gates))


def test_simulator_matches_kron_oracle_on_long_hfree_runs():
    # atol 1e-12 pins the exact global phase: i per Y gate, 2^(-1/2) per H
    rng = random.Random(5)
    for n in range(1, 7):
        for _ in range(4):
            c = _hfree_heavy_circuit(rng, n, rng.randint(1, 4), 25)
            assert np.allclose(circuit_unitary(c), kron_unitary(c), atol=1e-12)


def test_deferred_normalisation_survives_long_h_chains():
    # 2049 unnormalised butterflies would overflow float64 without the periodic rescale
    c = Circuit(1, (Gate(GateKind.H, 1),) * 2049)
    assert np.allclose(circuit_unitary(c), _MATS[GateKind.H], atol=1e-12)


def test_norm_preserved():
    rng = random.Random(4)
    for _ in range(10):
        c = _random_circuit(rng, 5, 40)
        # every column, each basis state's image, has unit norm
        assert np.allclose(np.linalg.norm(circuit_unitary(c), axis=0), 1.0, rtol=0, atol=1e-9)


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


def _variants(rng, a):
    """(b, label) pairs: a itself, a one-gate deletion, a global-phase variant, a T <-> TDG swap.

    ``a`` must hold at least one Y, one S and one T or TDG.
    """
    n, gates = a.num_qubits, list(a.gates)
    at = rng.randrange(len(gates))
    deleted = gates[:at] + gates[at + 1 :]
    # Y = i X Z, and T T = S: equal up to a global phase only
    if rng.random() < 0.5:
        i = rng.choice([i for i, g in enumerate(gates) if g.kind is GateKind.Y])
        q = gates[i].target
        phased = gates[:i] + [Gate(GateKind.Z, q), Gate(GateKind.X, q)] + gates[i + 1 :]
    else:
        i = rng.choice([i for i, g in enumerate(gates) if g.kind is GateKind.S])
        phased = gates[:i] + [Gate(GateKind.T, gates[i].target)] * 2 + gates[i + 1 :]
    ts = [i for i, g in enumerate(gates) if g.kind in (GateKind.T, GateKind.TDG)]
    i = rng.choice(ts)
    swapped_kind = GateKind.TDG if gates[i].kind is GateKind.T else GateKind.T
    swapped = gates[:i] + [Gate(swapped_kind, gates[i].target)] + gates[i + 1 :]
    return [
        (a, "self"),
        (Circuit(n, tuple(deleted)), "deletion"),
        (Circuit(n, tuple(phased)), "phase"),
        (Circuit(n, tuple(swapped)), "t-swap"),
    ]


def test_equivalence_matches_two_unitary_definition():
    # the one-array check against U1 = e^{i theta} U2 on two separately built unitaries;
    # the Kronecker oracle builds them up to 6 qubits, the simulator above that
    rng = random.Random(808)
    verdicts = {"self": set(), "deletion": set(), "phase": set(), "t-swap": set()}
    pairs = 0
    for _ in range(80):
        n = rng.randint(1, 8)
        gates = list(_random_circuit(rng, n, rng.randint(4, 30)).gates)
        for kind in (GateKind.Y, GateKind.S, GateKind.T):
            gates.insert(rng.randrange(len(gates) + 1), Gate(kind, rng.randint(1, n)))
        a = Circuit(n, tuple(gates))
        unitary = kron_unitary if n <= 6 else circuit_unitary
        ua = unitary(a)
        for b, label in _variants(rng, a):
            want = unitaries_equal_up_to_phase(ua, unitary(b))
            assert equivalent_up_to_phase(a, b) == want, (label, a, b)
            verdicts[label].add(want)
            pairs += 1
    assert pairs >= 300
    assert verdicts == {"self": {True}, "deletion": {False}, "phase": {True}, "t-swap": {False}}


def _h_count(gates) -> int:
    return sum(g.kind is GateKind.H for g in gates)


@pytest.fixture
def dense_calls(monkeypatch):
    """The gates of every circuit the check hands to ``verify._apply``."""
    calls = []

    def spy(c, psi, spare):
        calls.append(c.gates)
        return apply(c, psi, spare)

    apply = verify._apply
    monkeypatch.setattr(verify, "_apply", spy)
    return calls


def test_concurrent_checks_keep_their_verdicts(dense_calls):
    # each thread reuses its own pair of check arrays, so concurrent checks of one size do not mix;
    # HXH = Z, so the gadgets around b are the identity, and no run of a matches their runs
    front = (Gate(GateKind.H, 1), Gate(GateKind.X, 1), Gate(GateKind.H, 1), Gate(GateKind.Z, 1))
    back = (Gate(GateKind.Z, 1), Gate(GateKind.H, 1), Gate(GateKind.X, 1), Gate(GateKind.H, 1))
    rng = random.Random(909)
    pairs = []
    while len(pairs) < 16:
        a = _random_circuit(rng, 7, 60)
        at = rng.randrange(len(a.gates))
        if Gate(GateKind.H, 1) in (a.gates[0], a.gates[-1]):
            continue  # a would share its empty first or last run with the gadgets
        for b in (a.gates, a.gates[:at] + a.gates[at + 1 :]):
            pairs.append((a, Circuit(7, front + b + back)))
    want = [equivalent_up_to_phase(a, b) for a, b in pairs]
    # every pair reaches the dense path with all of its H gates
    assert [_h_count(gates) for gates in dense_calls] == [_h_count(a.gates + b.gates) for a, b in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(lambda: [equivalent_up_to_phase(a, b) for a, b in pairs]) for _ in range(8)]
            assert all(run.result(timeout=60) == want for run in runs)
    finally:
        sys.setswitchinterval(interval)
    assert want == [True, False] * 8


def _sandwich_cases(rng, n):
    """(label, m1, m2) middles for P + m1 + S against P + m2 + S on ``n`` qubits."""
    m1 = list(_random_circuit(rng, n, rng.randint(0, 12)).gates)
    q = rng.randint(1, n)
    at = rng.randint(0, len(m1))
    cases = [
        ("equal", m1, m1),
        ("unequal", m1, list(_random_circuit(rng, n, rng.randint(1, 12)).gates) + [Gate(GateKind.T, q)]),
        # one more H pair: the same unitary but a different run structure
        ("more H", m1, m1[:at] + [Gate(GateKind.H, q)] * 2 + m1[at:]),
    ]
    if n >= 2:
        # the same run, ended by H gates on two wires
        cases.append(("other H", m1 + [Gate(GateKind.H, q)], m1 + [Gate(GateKind.H, q % n + 1)]))
        # own terms {4 x1, 4 x2, 4 (x1 + x2)} and the identity map, yet the unitary is I
        zzz = [Gate(GateKind.Z, 1), Gate(GateKind.Z, 2), cnot(1, 2), Gate(GateKind.Z, 2), cnot(1, 2)]
        cases.append(("Z gadget", m1, m1[:at] + zzz + m1[at:]))
    return cases


def test_cut_of_shared_runs_keeps_the_verdict(dense_calls):
    rng = random.Random(2424)
    verdicts = {}
    for _ in range(40):
        n = rng.randint(1, 8)
        p = list(_random_circuit(rng, n, rng.randint(0, 20)).gates) + [Gate(GateKind.H, rng.randint(1, n))]
        s = [Gate(GateKind.H, rng.randint(1, n))] + list(_random_circuit(rng, n, rng.randint(0, 20)).gates)
        unitary = kron_unitary if n <= 6 else circuit_unitary
        for label, m1, m2 in _sandwich_cases(rng, n):
            c1, c2 = Circuit(n, tuple(p + m1 + s)), Circuit(n, tuple(p + m2 + s))
            want = unitaries_equal_up_to_phase(unitary(c1), unitary(c2))
            dense_calls.clear()
            assert equivalent_up_to_phase(c1, c2) == want, (label, c1, c2)
            # P ends and S starts with an H, so all of their runs are cut; equal middles leave nothing
            assert len(dense_calls) == (label != "equal")
            assert all(_h_count(gates) <= _h_count(m1 + m2) for gates in dense_calls)
            verdicts.setdefault(label, set()).add(want)
    assert verdicts == {
        "equal": {True},
        "unequal": {False},
        "more H": {True},
        "other H": {False},
        "Z gadget": {True},
    }


def test_shared_runs_never_reach_the_arrays(dense_calls, monkeypatch):
    def no_arrays(dim, thread):
        raise AssertionError("arrays allocated for a pair whose runs all match")

    monkeypatch.setattr(verify, "_check_arrays", no_arrays)
    # S = T T and Y = i X Z: other gates, but the same runs and H gates
    rewrite = {GateKind.S: (GateKind.T, GateKind.T), GateKind.Y: (GateKind.Z, GateKind.X)}
    rng = random.Random(77)
    for _ in range(10):
        a = _random_circuit(rng, 8, 80)
        gates = []
        for g in a.gates:
            gates += [Gate(k, g.target) for k in rewrite[g.kind]] if g.kind in rewrite else [g]
        b = Circuit(8, tuple(gates))
        assert b != a
        assert equivalent_up_to_phase(a, a) and equivalent_up_to_phase(a, b) and equivalent_up_to_phase(b, a)
    assert dense_calls == []


def test_one_gate_deletion_applies_only_its_run(dense_calls):
    rng = random.Random(78)
    for _ in range(20):
        a = _random_circuit(rng, 6, 60)
        at = rng.choice([k for k, g in enumerate(a.gates) if g.kind is not GateKind.H])
        b = Circuit(6, a.gates[:at] + a.gates[at + 1 :])
        run = _h_count(a.gates[:at])
        dense_calls.clear()
        assert not equivalent_up_to_phase(a, b)
        run_a, run_b = (extract_sliced(x, "own")[run].gates for x in (a, b))
        assert dense_calls == [run_a + verify._inverse(run_b)]


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
