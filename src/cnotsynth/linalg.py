"""Boolean matrix core shared by the synthesis modules.

Rows and parities are stored as Python ints used as bit vectors: bit ``i``
(for ``i >= 1``) is the coefficient of variable ``x_i`` and bit 0 is the
affine constant (the bit-flip variable ``b``). XOR is row addition over F2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind

CONST_BIT = 1  # mask of the affine-constant bit


class SingularTransformError(ValueError):
    """The linear block of a transform is not invertible over F2."""


class OverBudget(Exception):
    """A synthesizer's CNOTs reached the ``budget`` it was given; its circuit is dropped."""


def parity_mask(variables: tuple[int, ...] | list[int], const: bool = False) -> int:
    """Build a parity int from 1-indexed variable numbers."""
    p = CONST_BIT if const else 0
    for v in variables:
        p ^= 1 << v
    return p


def parity_vars(p: int) -> list[int]:
    """1-indexed variable numbers appearing in a parity int."""
    out = []
    v = 1
    q = p >> 1
    while q:
        if q & 1:
            out.append(v)
        v += 1
        q >>= 1
    return out


def format_parity(p: int) -> str:
    terms = (["1"] if p & CONST_BIT else []) + [f"x{v}" for v in parity_vars(p)]
    return "⊕".join(terms) if terms else "0"


def f2_row_reduce(rows: list[int]) -> tuple[list[int], list[int]]:
    """Row-echelon basis of the linear parts (constant bit stripped).

    Returns (basis, combos): ``basis[k]`` is a reduced row and ``combos[k]`` the
    parity over the *input* rows producing it: bit i+1 set when input row i is
    used, bit 0 the XOR of the used rows' constants. Each row's pivot bits are
    cleared top first; every nonzero span element's top bit is a pivot, so the
    residual and combo are unique.
    """
    pivots: dict[int, tuple[int, int]] = {}  # pivot bit_length -> (basis row, combo), in basis order
    pmask = 0
    for i, row in enumerate(rows):
        cur, combo = row & ~CONST_BIT, (1 << (i + 1)) | (row & CONST_BIT)
        while m := cur & pmask:
            b, c = pivots[m.bit_length()]
            cur ^= b
            combo ^= c
        if cur:
            pivots[cur.bit_length()] = (cur, combo)
            pmask |= 1 << (cur.bit_length() - 1)
    return [b for b, _ in pivots.values()], [c for _, c in pivots.values()]


def f2_solve(rows: list[int], targets: list[int]) -> list[int | None]:
    """Rewrite each target as a parity over ``rows``, reducing ``rows`` once.

    In an answer bit i+1 selects row i, and bit 0 is the target's constant XOR
    the selected rows' constants. The answer is None when the target's linear
    part lies outside the span of the rows' linear parts.
    """
    basis, combos = f2_row_reduce(rows)
    pivots = {b.bit_length(): (b, c) for b, c in zip(basis, combos)}
    pmask = sum(1 << (b.bit_length() - 1) for b in basis)  # pivots are distinct
    out: list[int | None] = []
    for t in targets:
        cur, combo = t & ~CONST_BIT, t & CONST_BIT
        while m := cur & pmask:
            b, c = pivots[m.bit_length()]
            cur ^= b
            combo ^= c
        out.append(None if cur else combo)
    return out


@dataclass
class AugmentedTransform:
    """The augmented transform [A'|b]: n rows of n variable bits plus a flip bit.

    Row i (1-indexed) is the parity currently held by qubit i, as a parity int.
    The value of a freshly allocated transform is the identity [I|0].
    """

    n: int
    rows: list[int]

    @staticmethod
    def identity(n: int) -> "AugmentedTransform":
        return AugmentedTransform(n, [1 << i for i in range(1, n + 1)])

    @staticmethod
    def from_bits(bits: list[list[int]]) -> "AugmentedTransform":
        """Rows given as 0/1 lists in column order x1..xn, b; any other entry is a ValueError."""
        n = len(bits)
        rows = []
        for r in bits:
            if len(r) != n + 1:
                raise ValueError(f"expected {n + 1} columns, got {len(r)}")
            if any(v not in (0, 1) for v in r):
                raise ValueError(f"matrix entries must be 0 or 1, got row {list(r)}")
            rows.append(parity_mask([i + 1 for i in range(n) if r[i]], const=bool(r[n])))
        return AugmentedTransform(n, rows)

    def copy(self) -> "AugmentedTransform":
        return AugmentedTransform(self.n, list(self.rows))

    def row_xor(self, dst: int, src: int) -> None:
        """Row dst <- row dst XOR row src (1-indexed, dst != src)."""
        if dst == src:
            raise ValueError("row_xor needs distinct rows")
        self.rows[dst - 1] ^= self.rows[src - 1]

    def apply_gate(self, g: Gate) -> None:
        """Replay one gate: CNOT(c,t) adds row c into row t; X(i) toggles row i's flip bit."""
        if g.kind is GateKind.CNOT:
            self.row_xor(g.target, g.control)
        elif g.kind is GateKind.X:
            self.rows[g.target - 1] ^= CONST_BIT
        else:
            raise ValueError(f"transform replay supports only CNOT and X, got {g.kind.value}")

    def transposed_linear(self) -> "AugmentedTransform":
        """Transpose of the n x n block; the flip column is dropped (it must be 0).

        Starts from the identity and visits only the set bits of the rows that differ from it.
        """
        rows = [1 << i for i in range(1, self.n + 1)]
        for j, row in enumerate(self.rows, start=1):
            row &= ~CONST_BIT
            if row == 1 << j:
                continue
            rows[j - 1] ^= 1 << j  # undo the identity's entry (j, j)
            while row:
                low = row & -row
                rows[low.bit_length() - 2] |= 1 << j
                row ^= low
        return AugmentedTransform(self.n, rows)

    def is_identity(self) -> bool:
        return self.rows == [1 << i for i in range(1, self.n + 1)]

    def padded(self, n: int) -> "AugmentedTransform":
        """Extend with identity rows up to n qubits."""
        if n < self.n:
            raise ValueError("cannot shrink a transform")
        return AugmentedTransform(n, list(self.rows) + [1 << i for i in range(self.n + 1, n + 1)])


def transform_of_circuit(c: Circuit) -> AugmentedTransform:
    """Fold a {CNOT, X} circuit into its augmented transform, starting from [I|0]."""
    out = AugmentedTransform.identity(c.num_qubits)
    for g in c.gates:
        out.apply_gate(g)
    return out


@dataclass(frozen=True)
class ParityMatrix:
    """A phase network's input: (coefficient, parity int) terms in first-appearance order.

    The terms are the pairs :meth:`~cnotsynth.phasepoly.PhasePolySet.terms`
    yields, as the constructor checks: distinct parities, no zero coefficient
    (mod 8) and no constant-only parity. :meth:`from_terms` builds them from any input.
    """

    columns: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for coeff, parity in self.columns:
            if not coeff % 8 or not parity & ~CONST_BIT or parity in seen:
                raise ValueError(f"phase term ({coeff}, {format_parity(parity)}) is zero, constant or repeated")
            seen.add(parity)

    @staticmethod
    def from_terms(terms) -> "ParityMatrix":
        """Merge (coeff, parity int) pairs mod 8 at each parity's first appearance; drop zeros and constants."""
        merged: dict[int, int] = {}
        for coeff, parity in terms:
            merged[parity] = (merged.get(parity, 0) + coeff) % 8
        return ParityMatrix(
            tuple((coeff, parity) for parity, coeff in merged.items() if coeff and parity & ~CONST_BIT)
        )
