import random

import pytest
from hypothesis import given, strategies as st

from cnotsynth.circuit import Circuit, Gate, GateKind, cnot
from cnotsynth.linalg import (
    AugmentedTransform,
    ParityMatrix,
    CONST_BIT,
    f2_row_reduce,
    f2_solve,
    parity_mask,
    transform_of_circuit,
)
from tests.conftest import APPENDIX_A_BITS, entry, f2_rank, is_invertible


def test_x_sets_flip_bit():
    a = AugmentedTransform.identity(3)
    out = a.copy()
    out.apply_gate(Gate(GateKind.X, 2))
    assert entry(out, 2, 4) == 1
    assert entry(a, 2, 4) == 0  # input untouched


def test_cnot_row_addition():
    out = AugmentedTransform.identity(2)
    out.apply_gate(cnot(1, 2))
    assert [entry(out, 2, j) for j in (1, 2, 3)] == [1, 1, 0]


def test_rejects_other_gates():
    a = AugmentedTransform.identity(2)
    with pytest.raises(ValueError):
        a.apply_gate(Gate(GateKind.T, 1))


def test_appendix_first_column_replay():
    # replaying the first column's row-operation list reproduces the printed matrix
    a = AugmentedTransform.from_bits(APPENDIX_A_BITS)
    for src, dst in [(4, 5), (3, 4), (1, 2), (2, 3), (1, 2)]:
        a.row_xor(dst, src)
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
    b = a.copy()
    b.row_xor(2, 1)
    b.row_xor(2, 1)
    assert a == b


@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
def test_row_add_preserves_invertibility(n, rng):
    bits = [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(n)]
    a = AugmentedTransform.from_bits(bits)
    before = is_invertible(a)
    dst, src = rng.sample(range(1, n + 1), 2)
    a.row_xor(dst, src)
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
        step = step.copy()
        step.apply_gate(g)
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


def test_parity_matrix_merges_and_drops():
    terms = [
        (1, parity_mask([1])),
        (1, parity_mask([1])),  # merges to 2
        (4, parity_mask([2], const=True)),
        (4, parity_mask([2], const=True)),  # merges to 0, dropped
        (3, parity_mask([], const=True)),  # zero variable mask, dropped
    ]
    assert ParityMatrix.from_terms(terms).columns == ((2, parity_mask([1])),)


def test_parity_matrix_idempotent():
    pm = ParityMatrix.from_terms([(1, parity_mask([1, 3])), (6, parity_mask([2], const=True)), (2, parity_mask([4]))])
    assert ParityMatrix.from_terms(pm.columns) == pm


def test_parity_matrix_rejects_what_from_terms_drops():
    # from_terms drops a constant-only term; the phase network has no wire to place one on
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        ParityMatrix(((1, CONST_BIT), (1, parity_mask([1, 2]))))
    x1 = parity_mask([1])
    for columns, named in [
        (((0, x1),), r"\(0, x1\)"),
        (((8, x1),), r"\(8, x1\)"),
        (((3, parity_mask([2])), (1, x1), (5, x1)), r"\(5, x1\)"),
    ]:
        with pytest.raises(ValueError, match=named):
            ParityMatrix(columns)
    # x1 and 1⊕x1 are distinct parities
    assert ParityMatrix(((1, x1), (2, x1 | CONST_BIT))).columns == ((1, x1), (2, x1 | CONST_BIT))


def test_parity_matrix_keeps_a_cancelled_term_in_its_first_place():
    x1, x2 = parity_mask([1]), parity_mask([2])
    pm = ParityMatrix.from_terms([(1, x1), (1, x2), (7, x1), (3, x1)])
    assert pm.columns == ((3, x1), (1, x2))


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
    b = a.copy()
    b.row_xor(2, 1)
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
