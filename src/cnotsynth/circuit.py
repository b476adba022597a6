"""Circuit intermediate representation, text serialization, and structural queries.

Qubits are 1-indexed everywhere (files, APIs, matrices) so that indices line up
with the connectivity-graph vertex labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .topology import ConnectivityGraph


class CircuitSyntaxError(ValueError):
    """Raised when a circuit file cannot be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GateKind(str, Enum):
    CNOT = "CNOT"
    H = "H"
    T = "T"
    TDG = "TDG"
    S = "S"
    SDG = "SDG"
    X = "X"
    Y = "Y"
    Z = "Z"


#: Single-qubit gates that contribute a phase-polynomial term, with their Z8 coefficient.
PHASE_COEFF = {
    GateKind.T: 1,
    GateKind.TDG: 7,
    GateKind.S: 2,
    GateKind.SDG: 6,
    GateKind.Z: 4,
    GateKind.Y: 4,
}


@dataclass(frozen=True, slots=True)
class Gate:
    """A gate instance. ``control`` is set iff ``kind`` is CNOT."""

    kind: GateKind
    target: int
    control: int | None = None

    def __post_init__(self):
        if self.kind is GateKind.CNOT:
            if self.control is None:
                raise ValueError("CNOT requires a control qubit")
            if self.control == self.target:
                raise ValueError("CNOT control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind.value} takes no control qubit")

    def __repr__(self):
        if self.kind is GateKind.CNOT:
            return f"CNOT({self.control},{self.target})"
        return f"{self.kind.value}({self.target})"


@cache
def cnot(control: int, target: int) -> Gate:
    """The CNOT gate on (control, target), built and checked once per pair and then shared.

    Gates are immutable, so every caller may hold the same instance. The memo
    holds one gate per pair ever asked for; a call that raises stores nothing.
    """
    return Gate(GateKind.CNOT, target, control)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over {CNOT, H, T, TDG, S, SDG, X, Y, Z}.

    Immutable after construction; safe to share across threads. The
    constructor checks every gate's qubits against ``num_qubits``;
    :meth:`trusted` builds without that check.
    """

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            qubits = (g.target,) if g.control is None else (g.control, g.target)
            for q in qubits:
                if not 1 <= q <= self.num_qubits:
                    raise ValueError(f"qubit index {q} outside [1, {self.num_qubits}] in {g}")

    @classmethod
    def trusted(cls, num_qubits: int, gates: tuple[Gate, ...]) -> "Circuit":
        """A circuit whose gates are known to act on qubits 1..``num_qubits``, built in O(1).

        For synthesizer and pipeline output, whose qubits are vertices of the
        graph the circuit is sized to, or gates of a circuit already checked
        against at most ``num_qubits`` qubits. Nothing is checked.
        """
        c = object.__new__(cls)
        object.__setattr__(c, "num_qubits", num_qubits)
        object.__setattr__(c, "gates", gates)
        return c

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.gates)


def count_gates(c: Circuit | Iterable[Gate], kind: GateKind | str) -> int:
    """Gates of ``kind`` in a circuit or in a bare gate sequence."""
    kind = GateKind(kind)
    return sum(1 for g in c if g.kind is kind)


def cnot_count(c: Circuit | Iterable[Gate]) -> int:
    return count_gates(c, GateKind.CNOT)


def connectivity_violations(c: Circuit, g: "ConnectivityGraph") -> list[tuple[int, int, int]]:
    """Every CNOT whose (control, target) pair is not an edge of ``g``, in gate order.

    Returns (gate index, control, target) triples; an empty list means the circuit
    is valid for the architecture.
    """
    bad = []
    for idx, gt in enumerate(c.gates):
        if gt.kind is GateKind.CNOT and not g.has_edge(gt.control, gt.target):
            bad.append((idx, gt.control, gt.target))
    return bad


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit file format.

    First non-comment line is ``qubits <n>``; then one gate per line, either
    ``<NAME> <q>`` or ``CNOT <control> <target>``. ``#`` starts a comment.
    """
    num_qubits = None
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if num_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise CircuitSyntaxError(line_no, "expected header 'qubits <n>'")
            try:
                num_qubits = int(tokens[1])
            except ValueError:
                raise CircuitSyntaxError(line_no, f"bad qubit count {tokens[1]!r}") from None
            if num_qubits < 1:
                raise CircuitSyntaxError(line_no, "qubit count must be positive")
            continue
        name = tokens[0].upper()
        try:
            kind = GateKind(name)
        except ValueError:
            raise CircuitSyntaxError(line_no, f"unknown gate name {tokens[0]!r}") from None
        want = 3 if kind is GateKind.CNOT else 2
        if len(tokens) != want:
            raise CircuitSyntaxError(line_no, f"{name} takes {want - 1} qubit argument(s)")
        try:
            args = [int(t) for t in tokens[1:]]
        except ValueError:
            raise CircuitSyntaxError(line_no, f"bad qubit index in {line!r}") from None
        for q in args:
            if not 1 <= q <= num_qubits:
                raise CircuitSyntaxError(line_no, f"qubit index {q} outside [1, {num_qubits}]")
        try:
            if kind is GateKind.CNOT:
                gates.append(cnot(args[0], args[1]))
            else:
                gates.append(Gate(kind, args[0]))
        except ValueError as exc:
            raise CircuitSyntaxError(line_no, str(exc)) from None
    if num_qubits is None:
        raise CircuitSyntaxError(1, "missing 'qubits <n>' header")
    return Circuit.trusted(num_qubits, tuple(gates))  # the loop checked every qubit


def write_circuit(c: Circuit) -> str:
    """Serialize in the canonical form accepted by :func:`parse_circuit`."""
    lines = [f"qubits {c.num_qubits}"]
    for g in c.gates:
        if g.kind is GateKind.CNOT:
            lines.append(f"CNOT {g.control} {g.target}")
        else:
            lines.append(f"{g.kind.value} {g.target}")
    return "\n".join(lines) + "\n"
