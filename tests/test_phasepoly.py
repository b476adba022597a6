
import random

import pytest

from cnotsynth.circuit import Circuit, Gate, GateKind, cnot
from cnotsynth.linalg import CONST_BIT, f2_solve, parity_mask, transform_of_circuit
from cnotsynth.phasepoly import (
    HSliceRecord,
    PhasePolySet,
    dump_phasepoly,
    extract_hfree,
    extract_sliced,
    identity_state,
    rebase,
    uncomputable_terms,
)
from cnotsynth.pipeline import random_circuit
from tests.conftest import APPENDIX_PHASE_TERMS, f2_rank


def test_single_t():
    terms, q = extract_hfree(Circuit(1, (Gate(GateKind.T, 1),)))
    assert terms == PhasePolySet([(1, parity_mask([1]))])
    assert q == (parity_mask([1]),)


def test_t_t_merges_to_s_coefficient():
    terms, _ = extract_hfree(Circuit(1, (Gate(GateKind.T, 1), Gate(GateKind.T, 1))))
    assert terms == PhasePolySet([(2, parity_mask([1]))])


def test_coefficient_map():
    kinds = [
        (GateKind.T, 1),
        (GateKind.TDG, 7),
        (GateKind.S, 2),
        (GateKind.SDG, 6),
        (GateKind.Z, 4),
        (GateKind.Y, 4),
    ]
    for kind, coeff in kinds:
        terms, _ = extract_hfree(Circuit(1, (Gate(kind, 1),)))
        assert terms.coefficient(parity_mask([1])) == coeff


def test_y_also_flips_bit():
    _, q = extract_hfree(Circuit(1, (Gate(GateKind.Y, 1),)))
    assert q == (parity_mask([1], const=True),)


def test_t_after_x_gets_complemented_parity():
    terms, _ = extract_hfree(Circuit(1, (Gate(GateKind.X, 1), Gate(GateKind.T, 1))))
    assert terms == PhasePolySet([(1, parity_mask([1], const=True))])


def test_coefficients_cancel_mod_8():
    c = Circuit(1, (Gate(GateKind.T, 1), Gate(GateKind.TDG, 1)))
    terms, _ = extract_hfree(c)
    assert len(terms) == 0


def test_rejects_h():
    with pytest.raises(ValueError):
        extract_hfree(Circuit(1, (Gate(GateKind.H, 1),)))


def _random_hfree(rng, n, length):
    kinds = [k for k in GateKind if k not in (GateKind.H, GateKind.CNOT)]
    gates = []
    for _ in range(length):
        if n > 1 and rng.random() < 0.5:
            c, t = rng.sample(range(1, n + 1), 2)
            gates.append(cnot(c, t))
        else:
            gates.append(Gate(rng.choice(kinds), rng.randint(1, n)))
    return Circuit(n, tuple(gates))


def test_compositionality():
    rng = random.Random(23)
    for _ in range(30):
        c1 = _random_hfree(rng, 4, 12)
        c2 = _random_hfree(rng, 4, 12)
        whole_terms, whole_q = extract_hfree(Circuit(4, c1.gates + c2.gates))
        # fold c2's rules starting from c1's final state
        terms, q = extract_hfree(c1)
        state = list(q)
        for g in c2.gates:
            if g.kind is GateKind.CNOT:
                state[g.target - 1] ^= state[g.control - 1]
            elif g.kind is GateKind.X:
                state[g.target - 1] ^= CONST_BIT
            elif g.kind is GateKind.Y:
                terms.add(4, state[g.target - 1])
                state[g.target - 1] ^= CONST_BIT
            else:
                from cnotsynth.circuit import PHASE_COEFF

                terms.add(PHASE_COEFF[g.kind], state[g.target - 1])
        assert terms == whole_terms and tuple(state) == whole_q


def test_state_agrees_with_transform_replay():
    rng = random.Random(31)
    for _ in range(30):
        c = _random_hfree(rng, 5, 20)
        sub = Circuit(5, tuple(g for g in c.gates if g.kind in (GateKind.CNOT, GateKind.X)))
        _, q = extract_hfree(sub)
        assert list(q) == transform_of_circuit(sub).rows


def test_appendix_network_extraction(grid2x3):
    # the synthesized network of the worked example must extract its own input set
    from cnotsynth.linalg import ParityMatrix
    from cnotsynth.phasesynth import phase_nw_synth

    pm = ParityMatrix.from_terms(6, APPENDIX_PHASE_TERMS)
    circ, _ = phase_nw_synth(pm, grid2x3)
    terms, _ = extract_hfree(circ)
    assert terms == PhasePolySet(APPENDIX_PHASE_TERMS)


def test_appendix_network_extraction_survives_serialization(grid2x3):
    from cnotsynth.circuit import parse_circuit, write_circuit
    from cnotsynth.linalg import ParityMatrix
    from cnotsynth.phasesynth import phase_nw_synth

    pm = ParityMatrix.from_terms(6, APPENDIX_PHASE_TERMS)
    circ, _ = phase_nw_synth(pm, grid2x3)
    reparsed = parse_circuit(write_circuit(circ))
    terms, _ = extract_hfree(reparsed)
    assert terms == PhasePolySet(APPENDIX_PHASE_TERMS)


# -- sliced extraction ----------------------------------------------------------


def test_sliced_consistent_with_hfree():
    rng = random.Random(5)
    c = _random_hfree(rng, 4, 15)
    ext = extract_sliced(c)
    terms, q = extract_hfree(c)
    assert ext.records == ()
    assert ext.terms == terms and ext.state == q


def test_single_h():
    ext = extract_sliced(Circuit(1, (Gate(GateKind.H, 1),)))
    assert len(ext.terms) == 0
    assert ext.records == (HSliceRecord(1, (parity_mask([1]),), (parity_mask([2]),)),)
    assert ext.num_vars == 2


def test_t_h_t():
    c = Circuit(1, (Gate(GateKind.T, 1), Gate(GateKind.H, 1), Gate(GateKind.T, 1)))
    ext = extract_sliced(c)
    assert ext.terms == PhasePolySet([(1, parity_mask([1])), (1, parity_mask([2]))])
    assert len(ext.records) == 1
    assert ext.records[0].q_in == (parity_mask([1]),)
    assert ext.records[0].q_out == (parity_mask([2]),)


def test_fresh_variable_numbering():
    c = Circuit(2, (Gate(GateKind.H, 2), Gate(GateKind.H, 2), Gate(GateKind.H, 1)))
    ext = extract_sliced(c)
    assert [r.q_out[r.pos - 1] for r in ext.records] == [1 << 3, 1 << 4, 1 << 5]
    assert ext.num_vars == 5


# -- spans and rebasing -----------------------------------------------------------


def test_uncomputable_empty():
    h = HSliceRecord(1, identity_state(2), (parity_mask([3]), parity_mask([2])))
    assert len(uncomputable_terms(PhasePolySet(), h)) == 0


def test_uncomputable_single_qubit():
    h = HSliceRecord(1, (parity_mask([1]),), (parity_mask([2]),))
    p = PhasePolySet([(3, parity_mask([1]))])
    out = uncomputable_terms(p, h)
    assert out == p


def test_uncomputable_keeps_surviving_terms():
    # x1 survives the H on qubit 2; x2 does not
    q_in = (parity_mask([1]), parity_mask([2]))
    q_out = (parity_mask([1]), parity_mask([3]))
    h = HSliceRecord(2, q_in, q_out)
    p = PhasePolySet([(1, parity_mask([1])), (1, parity_mask([2])), (1, parity_mask([1, 2]))])
    out = uncomputable_terms(p, h)
    assert out == PhasePolySet([(1, parity_mask([2])), (1, parity_mask([1, 2]))])


def test_uncomputable_matches_two_solve_definition():
    # one solve against q_in decides what two solves (q_in, then q_out) decide,
    # because every extract_sliced record has independent q_in rows
    rng = random.Random(11)
    records = 0
    for _ in range(300):
        n = rng.randint(2, 9)
        ext = extract_sliced(random_circuit(n, rng.randint(1, 30), rng))
        remaining = PhasePolySet(ext.terms.terms())
        for h in ext.records:
            assert f2_rank(list(h.q_in)) == n
            terms = remaining.terms()
            parities = [parity for _, parity in terms]
            before = f2_solve(list(h.q_in), parities)
            after = f2_solve(list(h.q_out), parities)
            expected = [t for t, b, a in zip(terms, before, after) if b is not None and a is None]
            unc = uncomputable_terms(remaining, h)
            assert list(unc.terms()) == expected
            for _, parity in unc.terms():  # as the phase-partitioned pipeline does
                remaining.discard(parity)
            records += 1
    assert records > 300


def _span_membership_oracle(parity, state):
    # exhaustive subset-XOR over the variable parts
    target = parity & ~CONST_BIT
    for mask in range(1 << len(state)):
        acc = 0
        for i, row in enumerate(state):
            if mask >> i & 1:
                acc ^= row & ~CONST_BIT
        if acc == target:
            return True
    return False


def test_span_membership_matches_exhaustive_oracle():
    rng = random.Random(9)
    for _ in range(300):
        width = rng.randint(2, 6)
        state = tuple(rng.getrandbits(width + 1) & ~CONST_BIT for _ in range(rng.randint(1, 5)))
        parity = rng.getrandbits(width + 1)
        [combo] = f2_solve(list(state), [parity])
        assert (combo is not None) == _span_membership_oracle(parity, state)


def test_rebase_identity_basis():
    p = PhasePolySet([(1, parity_mask([1, 3])), (5, parity_mask([2], const=True))])
    pm = rebase(p, identity_state(3))
    assert pm.terms() == list(p.terms())


def test_rebase_direct_basis_hit():
    basis = (parity_mask([1]), parity_mask([1, 2]))
    pm = rebase(PhasePolySet([(1, parity_mask([1, 2]))]), basis)
    assert len(pm.columns) == 1
    assert pm.columns[0].mask == parity_mask([2])  # selects wire 2 only
    assert not pm.columns[0].bit


def test_rebase_constant_mismatch_becomes_flip_bit():
    # wire 1 holds 1 + x1; the term x1 rebases to wire 1 with the flip bit set
    basis = (parity_mask([1], const=True),)
    pm = rebase(PhasePolySet([(2, parity_mask([1]))]), basis)
    assert pm.columns[0].mask == parity_mask([1])
    assert pm.columns[0].bit


def test_rebase_outside_span():
    with pytest.raises(ValueError):
        rebase(PhasePolySet([(1, parity_mask([2]))]), (parity_mask([1]),))


def test_rebase_round_trip_random_bases():
    rng = random.Random(41)
    for _ in range(50):
        n = 5
        while True:
            basis = tuple(rng.getrandbits(n + 1) & ~1 for _ in range(n))
            if f2_rank(list(basis)) == n:
                break
        basis = tuple(b | (CONST_BIT if rng.random() < 0.3 else 0) for b in basis)
        terms = []
        for _ in range(rng.randint(1, 6)):
            combo = rng.randint(1, (1 << n) - 1)
            acc = CONST_BIT if rng.random() < 0.5 else 0
            for i in range(n):
                if combo >> i & 1:
                    acc ^= basis[i]
            terms.append((rng.randint(1, 7), acc))
        p = PhasePolySet(terms)
        pm = rebase(p, basis)
        # expand back: each column re-applied to the basis reproduces its term
        expanded = PhasePolySet()
        for col in pm.columns:
            acc = CONST_BIT if col.bit else 0
            for i in range(n):
                if col.mask >> (i + 1) & 1:
                    acc ^= basis[i]
            expanded.add(col.coeff, acc)
        assert expanded == p


def test_dump_format():
    p = PhasePolySet([(1, parity_mask([1, 4, 5], const=True)), (2, parity_mask([2]))])
    assert dump_phasepoly(p) == "1 : 1⊕x1⊕x4⊕x5\n2 : x2\n"
