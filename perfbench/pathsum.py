"""Output checks of the benchmark, written apart from the library's own extraction.

``fold`` computes a circuit's sum-over-paths summary: every H gate gives its
wire a fresh path variable. Two circuits on the same wires are equivalent up to
a global phase when their summaries are equal (Amy, arXiv:1805.06908): the same
pre-H parity at each H, in order and with the constant bit; the same phase
polynomial mod 8, each term's constant bit folded into the global phase; and
the same final wire states. The check is sound but not complete.
"""

from __future__ import annotations

from cnotsynth.circuit import Circuit, GateKind

# Z8 exponent of omega = e^{i pi/4} that each phase gate puts on its wire's parity;
# Y = iXZ adds the Z phase and then flips the wire.
_PHASE = {GateKind.T: 1, GateKind.TDG: 7, GateKind.S: 2, GateKind.SDG: 6, GateKind.Z: 4, GateKind.Y: 4}


def fold(c: Circuit) -> tuple[tuple[int, ...], dict[int, int], tuple[int, ...]]:
    """(pre-H parities, phase terms {parity: coefficient mod 8}, final wire states).

    Parities are ints: bit 0 is the constant, bit i the path variable x_i.
    """
    state = [1 << i for i in range(1, c.num_qubits + 1)]
    fresh = c.num_qubits
    pre_h: list[int] = []
    terms: dict[int, int] = {}
    for g in c.gates:
        w = g.target - 1
        if g.kind is GateKind.CNOT:
            state[w] ^= state[g.control - 1]
        elif g.kind is GateKind.H:
            pre_h.append(state[w])
            fresh += 1
            state[w] = 1 << fresh
        else:
            coeff = _PHASE.get(g.kind)
            if coeff:
                parity = state[w]
                if parity & 1:  # omega^{c(1 xor p)} = omega^c * omega^{-c p}
                    coeff, parity = -coeff, parity ^ 1
                terms[parity] = (terms.get(parity, 0) + coeff) % 8
            if g.kind in (GateKind.X, GateKind.Y):
                state[w] ^= 1
    return tuple(pre_h), {p: k for p, k in terms.items() if k}, tuple(state)


def equivalent(a: Circuit, b: Circuit) -> bool:
    """True when the path-sum summaries of ``a`` and ``b`` are equal."""
    return a.num_qubits == b.num_qubits and fold(a) == fold(b)


def off_graph_cnots(c: Circuit, edges: frozenset[tuple[int, int]]) -> int:
    """CNOTs whose (control, target) pair is not an edge; ``edges`` holds (u, v) with u < v."""
    return sum(
        1
        for g in c.gates
        if g.kind is GateKind.CNOT and (min(g.control, g.target), max(g.control, g.target)) not in edges
    )
