import pytest
from hypothesis import given, strategies as st

from cnotsynth.circuit import (
    Circuit,
    CircuitSyntaxError,
    Gate,
    GateKind,
    cnot,
    cnot_count,
    connectivity_violations,
    count_gates,
    parse_circuit,
    write_circuit,
)
from cnotsynth.topology import preset_graph


def test_single_gate_parse():
    c = parse_circuit("qubits 2\nCNOT 1 2")
    assert c.num_qubits == 2
    assert c.gates == (cnot(1, 2),)


def test_ordering_preserved():
    c = parse_circuit("qubits 1\nT 1\nH 1")
    assert c.gates == (Gate(GateKind.T, 1), Gate(GateKind.H, 1))


def test_comments_and_blanks():
    text = "# header\nqubits 2\n\nT 1  # phase\n# done\nCNOT 2 1\n"
    c = parse_circuit(text)
    assert c.gates == (Gate(GateKind.T, 1), cnot(2, 1))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("T 1", "qubits"),
        ("qubits 2\nFOO 1", "unknown gate"),
        ("qubits 2\nCNOT 1 3", "outside"),
        ("qubits 2\nCNOT 1", "argument"),
        ("qubits 2\nCNOT 1 1", "differ"),
        ("qubits you", "bad qubit count"),
        ("qubits 0", "qubit count must be positive"),
        ("qubits 2\nT a", "bad qubit index"),
        ("# no header\n", "missing 'qubits <n>' header"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(text)
    assert fragment in str(err.value)


def test_parse_error_line_number():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 2\nT 1\nBAD 1\n")
    assert err.value.line_no == 3


def test_gate_invariants():
    with pytest.raises(ValueError):
        Gate(GateKind.T, 1, control=2)
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, 1)
    with pytest.raises(ValueError):
        Circuit(2, (Gate(GateKind.T, 3),))


def test_cnot_built_once_per_pair():
    assert cnot(2, 3) is cnot(2, 3)
    assert cnot(3, 2) == Gate(GateKind.CNOT, 2, control=3)
    for _ in range(2):  # a call that raises is not memoized
        with pytest.raises(ValueError):
            cnot(1, 1)


@st.composite
def circuits(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    kinds = [k for k in GateKind if k is not GateKind.CNOT]
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        if n > 1 and draw(st.booleans()):
            c = draw(st.integers(min_value=1, max_value=n))
            t = draw(st.integers(min_value=1, max_value=n - 1))
            t = t + 1 if t >= c else t
            gates.append(cnot(c, t))
        else:
            gates.append(Gate(draw(st.sampled_from(kinds)), draw(st.integers(1, n))))
    return Circuit(n, tuple(gates))


@given(circuits())
def test_round_trip(c):
    assert parse_circuit(write_circuit(c)) == c


@given(circuits())
def test_cnot_count_survives_round_trip(c):
    assert cnot_count(parse_circuit(write_circuit(c))) == cnot_count(c)


def test_count_gates_empty():
    assert count_gates(Circuit(3, ()), GateKind.CNOT) == 0


def test_violations_adjacent_pair_ok():
    g = preset_graph("9q-square")
    assert connectivity_violations(Circuit(9, (cnot(1, 2),)), g) == []


def test_violations_distant_pair_flagged():
    g = preset_graph("9q-square")
    c = Circuit(9, (Gate(GateKind.H, 3), cnot(1, 9)))
    assert connectivity_violations(c, g) == [(1, 1, 9)]
