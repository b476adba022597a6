import random

import pytest
from hypothesis import given, strategies as st

from cnotsynth.circuit import Circuit, Gate, GateKind, cnot
from cnotsynth.linalg import AugmentedTransform, CONST_BIT, f2_row_reduce, f2_solve, parity_mask
from cnotsynth.phasepoly import PhasePolySet, transform_of_circuit
from tests.conftest import APPENDIX_A_BITS, entry, f2_rank, is_invertible, replay


def test_x_sets_flip_bit():
    out = transform_of_circuit(Circuit(3, (Gate(GateKind.X, 2),)))
    assert entry(out, 2, 4) == 1
    assert out.rows[0] == 1 << 1 and out.rows[2] == 1 << 3  # the other rows untouched


def test_cnot_row_addition():
    out = transform_of_circuit(Circuit(2, (cnot(1, 2),)))
    assert [entry(out, 2, j) for j in (1, 2, 3)] == [1, 1, 0]


def test_rejects_other_gates():
    # a Y flips its wire in the extraction's fold, but it is not a {CNOT, X} gate
    for kind in (GateKind.T, GateKind.Y, GateKind.H):
        with pytest.raises(ValueError, match=f"transform replay supports only CNOT and X, got {kind.value}$"):
            transform_of_circuit(Circuit(2, (cnot(1, 2), Gate(kind, 1))))


def test_appendix_first_column_replay():
    # replaying the first column's row-operation list reproduces the printed matrix
    a = AugmentedTransform.from_bits(APPENDIX_A_BITS)
    replay(a, *(cnot(src, dst) for src, dst in [(4, 5), (3, 4), (1, 2), (2, 3), (1, 2)]))
    expected = AugmentedTransform.from_bits(
        [
            [1, 1, 0, 1, 1, 0, 0],
            [0, 0, 1, 1, 0, 1, 0],
            [0, 1, 0, 0, 0, 1, 0],
            [0, 1, 1, 1, 1, 0, 0],
            [0, 0, 1, 0, 0, 0, 0],
            [0, 1, 0, 1, 0, 1, 0],
        ]
    )
    assert a == expected


def test_row_add_involution():
    rng = random.Random(7)
    bits = [[rng.randint(0, 1) for _ in range(6)] for _ in range(5)]
    a = AugmentedTransform.from_bits(bits)
    b = replay(a.copy(), cnot(1, 2), cnot(1, 2))
    assert a == b


@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
def test_row_add_preserves_invertibility(n, rng):
    bits = [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(n)]
    a = AugmentedTransform.from_bits(bits)
    before = is_invertible(a)
    dst, src = rng.sample(range(1, n + 1), 2)
    replay(a, cnot(src, dst))
    assert is_invertible(a) == before


def test_fold_equals_composition():
    rng = random.Random(11)
    gates = []
    for _ in range(30):
        if rng.random() < 0.7:
            c, t = rng.sample(range(1, 5), 2)
            gates.append(cnot(c, t))
        else:
            gates.append(Gate(GateKind.X, rng.randint(1, 4)))
    circ = Circuit(4, tuple(gates))
    folded = transform_of_circuit(circ)
    step = AugmentedTransform.identity(4)
    for g in circ.gates:
        step = replay(step.copy(), g)
    assert folded == step


def test_transpose():
    a = AugmentedTransform.from_bits([[1, 1, 0], [0, 1, 0]])
    t = a.transposed_linear()
    assert [entry(t, 1, j) for j in (1, 2)] == [1, 0]
    assert [entry(t, 2, j) for j in (1, 2)] == [1, 1]
    # entry by entry, on transforms whose rows are mostly those of the identity
    rng = random.Random(97)
    for n in (1, 2, 5, 9):
        for _ in range(50):
            a = AugmentedTransform.identity(n)
            for _ in range(rng.randint(0, n)):
                a.rows[rng.randrange(n)] = rng.getrandbits(n) << 1 | rng.getrandbits(1)
            t = a.transposed_linear()
            assert [[entry(t, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)] == [
                [entry(a, j, i) for j in range(1, n + 1)] for i in range(1, n + 1)
            ]


def test_from_bits_rejects_non_binary_entries():
    with pytest.raises(ValueError):
        AugmentedTransform.from_bits([[2, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        AugmentedTransform.from_bits([[1, 0, 0], [0, 1, -1]])  # the flip column too


def _parity_matrix_cases():
    # the paper's parity matrix is a PhasePolySet: (terms added, columns it holds)
    x1, x2 = parity_mask([1]), parity_mask([2])
    return [
        ([(1, x1), (1, x1), (4, x2 | CONST_BIT), (4, x2 | CONST_BIT)], ((2, x1),)),  # merges to 2; to 0, dropped
        ([(0, x1)], ()),
        ([(8, x1)], ()),
        ([(3, x2), (1, x1), (5, x1)], ((3, x2), (6, x1))),  # a repeated parity merges into its place
        ([(1, x1), (2, x1 | CONST_BIT)], ((1, x1), (2, x1 | CONST_BIT))),  # x1 and 1⊕x1 are distinct parities
        ([(1, parity_mask([1, 3])), (6, x2 | CONST_BIT), (2, parity_mask([4]))], None),  # nothing merges
    ]


def test_parity_matrix_merges_and_drops():
    for terms, columns in _parity_matrix_cases():
        p = PhasePolySet(terms)
        want = tuple(terms) if columns is None else columns
        assert p.columns == want and len(p) == len(want), terms


def test_parity_matrix_idempotent():
    for terms, _ in _parity_matrix_cases():
        p = PhasePolySet(terms)
        again = PhasePolySet(p.columns)
        assert again == p and again.columns == p.columns, terms


def test_f2_span_matches_enumeration():
    rng = random.Random(3)
    for trial in range(400):
        # the second half gives rows and targets random constant bits
        const = (lambda: rng.getrandbits(1)) if trial >= 200 else (lambda: 0)
        rows = [rng.getrandbits(6) << 1 | const() for _ in range(rng.randint(1, 5))]
        targets = [rng.getrandbits(6) << 1 | const() for _ in range(3)]
        for target, combo in zip(targets, f2_solve(rows, targets)):
            spanned = any(
                _xor_subset(rows, mask) & ~CONST_BIT == target & ~CONST_BIT
                for mask in range(1 << len(rows))
            )
            assert (combo is not None) == spanned
            if combo is not None:
                # bit 0 of the answer supplies the constant the selected rows lack
                assert _xor_subset(rows, combo >> 1) ^ (combo & CONST_BIT) == target


def _xor_subset(rows, mask):
    acc = 0
    for i, r in enumerate(rows):
        if mask >> i & 1:
            acc ^= r
    return acc


def _sweep_reduce(cur, combo, basis, combos):
    # reference: test every basis row's pivot in turn
    for b, c in zip(basis, combos):
        if cur & 1 << (b.bit_length() - 1):
            cur ^= b
            combo ^= c
    return cur, combo


def _sweep_row_reduce(rows):
    basis, combos = [], []
    for i, row in enumerate(rows):
        cur, combo = _sweep_reduce(row & ~CONST_BIT, (1 << (i + 1)) | (row & CONST_BIT), basis, combos)
        if cur:
            basis.append(cur)
            combos.append(combo)
    return basis, combos


def _sweep_solve(rows, targets):
    basis, combos = _sweep_row_reduce(rows)
    out = []
    for t in targets:
        cur, combo = _sweep_reduce(t & ~CONST_BIT, t & CONST_BIT, basis, combos)
        out.append(None if cur else combo)
    return out


def _random_rows(rng, width):
    """Rows of random density with random constants; some repeat or combine earlier rows."""
    rows = []
    density = rng.random()
    for _ in range(rng.randint(0, width + 3)):
        if rows and rng.random() < 0.25:  # dependent on earlier rows
            row = 0
            for r in rng.sample(rows, rng.randint(1, len(rows))):
                row ^= r
            row = row & ~CONST_BIT | rng.getrandbits(1)
        else:
            row = sum(1 << v for v in range(1, width + 1) if rng.random() < density) | rng.getrandbits(1)
        rows.append(row)
    return rows


def test_pivot_indexed_reduction_matches_sequential_sweep():
    rng = random.Random(20)
    for _ in range(5000):
        width = rng.randint(1, 40)
        rows = _random_rows(rng, width)
        targets = [rng.getrandbits(width) << 1 | rng.getrandbits(1) for _ in range(3)]
        for _ in range(3):  # targets inside the span
            t = rng.getrandbits(1)
            for r in rows:
                if rng.random() < 0.5:
                    t ^= r & ~CONST_BIT
            targets.append(t)
        assert f2_row_reduce(rows) == _sweep_row_reduce(rows)
        assert f2_solve(rows, targets) == _sweep_solve(rows, targets)


def test_rank():
    assert f2_rank([0b10, 0b100, 0b110]) == 2
    assert f2_rank([]) == 0


def test_row_add_pure():
    a = AugmentedTransform.identity(3)
    b = replay(a.copy(), cnot(1, 2))
    assert a.is_identity()
    assert [entry(b, 2, j) for j in (1, 2, 3)] == [1, 1, 0]


B0_GRID = [
    # parity-network columns p1..p7 as a 6x7 bit grid (rows x1..x6)
    [1, 0, 0, 1, 1, 1, 0],
    [0, 1, 0, 1, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 0],
    [1, 0, 1, 0, 0, 1, 1],
    [1, 1, 1, 0, 0, 0, 1],
    [0, 1, 1, 1, 0, 1, 0],
]

B4_GRID = [
    # the same columns after row 6 += row 5 and then row 5 += row 4
    [1, 0, 0, 1, 1, 1, 0],
    [0, 1, 0, 1, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 0],
    [1, 0, 1, 0, 0, 1, 1],
    [0, 1, 0, 0, 0, 1, 0],
    [1, 0, 0, 1, 0, 1, 1],
]


def test_parity_column_row_operations_fixture():
    cols = [sum(B0_GRID[r][j] << (r + 1) for r in range(6)) for j in range(7)]

    def col_row_xor(dst, src):
        for i, m in enumerate(cols):
            if m >> src & 1:
                cols[i] = m ^ (1 << dst)

    col_row_xor(6, 5)
    col_row_xor(5, 4)
    expected = [sum(B4_GRID[r][j] << (r + 1) for r in range(6)) for j in range(7)]
    assert cols == expected
