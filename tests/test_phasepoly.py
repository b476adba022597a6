
import random

import pytest

from cnotsynth.circuit import PHASE_COEFF, Circuit, Gate, GateKind, cnot
from cnotsynth.linalg import CONST_BIT, f2_solve, parity_mask
from cnotsynth.phasepoly import (
    PhasePolySet,
    dump_phasepoly,
    extract_hfree,
    extract_sliced,
    identity_state,
    rebase,
    transform_of_circuit,
    uncomputable_terms,
)
from cnotsynth.pipeline import cnot_opt_b, random_circuit
from cnotsynth.topology import ConnectivityGraph
from tests.conftest import (
    APPENDIX_PHASE_TERMS,
    circuit_terms,
    f2_rank,
    hfree_fold,
    hfree_runs,
    partition_fold,
    reference_fold,
    run_starts,
)

PARTITIONS = ("own", "first")


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
        assert {p: c for c, p in terms.columns}[parity_mask([1])] == coeff


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


def test_a_cancelled_term_added_again_goes_last():
    # the rule the extraction's terms follow, and PINNED_OUTPUTS with them
    x1, x2 = parity_mask([1]), parity_mask([2])
    assert PhasePolySet([(1, x1), (1, x2), (7, x1), (3, x1)]).columns == ((1, x2), (3, x1))
    t1, t2, tdg1, s1 = Gate(GateKind.T, 1), Gate(GateKind.T, 2), Gate(GateKind.TDG, 1), Gate(GateKind.S, 1)
    terms, _ = extract_hfree(Circuit(2, (t1, t2, tdg1, s1)))
    assert terms.columns == ((1, x2), (2, x1))


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
        terms, q = hfree_fold(c2.gates, q, terms)
        assert terms == whole_terms and q == whole_q


def test_state_agrees_with_transform_replay():
    rng = random.Random(31)
    for _ in range(30):
        c = _random_hfree(rng, 5, 20)
        sub = Circuit(5, tuple(g for g in c.gates if g.kind in (GateKind.CNOT, GateKind.X)))
        _, q = extract_hfree(sub)
        assert list(q) == transform_of_circuit(sub).rows


def test_appendix_network_extraction(grid2x3):
    # the synthesized network of the worked example must extract its own input set
    from cnotsynth.phasesynth import phase_nw_synth

    circ, _ = phase_nw_synth(PhasePolySet(APPENDIX_PHASE_TERMS), grid2x3)
    terms, _ = extract_hfree(circ)
    assert terms == PhasePolySet(APPENDIX_PHASE_TERMS)


def test_appendix_network_extraction_survives_serialization(grid2x3):
    from cnotsynth.circuit import parse_circuit, write_circuit
    from cnotsynth.phasesynth import phase_nw_synth

    circ, _ = phase_nw_synth(PhasePolySet(APPENDIX_PHASE_TERMS), grid2x3)
    reparsed = parse_circuit(write_circuit(circ))
    terms, _ = extract_hfree(reparsed)
    assert terms == PhasePolySet(APPENDIX_PHASE_TERMS)


# -- sliced extraction ----------------------------------------------------------


def test_sliced_consistent_with_hfree():
    rng = random.Random(5)
    c = _random_hfree(rng, 4, 15)
    terms, q = hfree_fold(c.gates, identity_state(4))
    for partition in PARTITIONS:
        [only] = extract_sliced(c, partition)
        assert only.gates == c.gates and only.h is None
        assert only.terms == terms and only.map == q


def test_single_h():
    c = Circuit(1, (Gate(GateKind.H, 1),))
    slices = extract_sliced(c, "own")
    assert len(circuit_terms(c)) == 0 and not any(s.terms for s in slices)
    assert [(s.gates, s.h) for s in slices] == [((), 1), ((), None)]
    assert reference_fold(c)[1] == [(1, (parity_mask([1]),), (parity_mask([2]),))]  # x_{n + the H count}


def test_t_h_t():
    c = Circuit(1, (Gate(GateKind.T, 1), Gate(GateKind.H, 1), Gate(GateKind.T, 1)))
    assert circuit_terms(c) == PhasePolySet([(1, parity_mask([1])), (1, parity_mask([2]))])
    for partition in PARTITIONS:
        slices = extract_sliced(c, partition)
        # each T is on wire 1's start parity of its run: x1, then x2 after the H
        assert [s.terms for s in slices] == [PhasePolySet([(1, parity_mask([1]))])] * 2
        assert [s.h for s in slices] == [1, None]
    [(wire, q_in, q_out)] = reference_fold(c)[1]
    assert q_in == (parity_mask([1]),) and q_out == (parity_mask([2]),)


def test_fresh_variable_numbering():
    c = Circuit(2, (Gate(GateKind.H, 2), Gate(GateKind.H, 2), Gate(GateKind.H, 1)))
    assert [q_out[wire - 1] for wire, _, q_out in reference_fold(c)[1]] == [1 << 3, 1 << 4, 1 << 5]
    # under "first" each run owns the parities of the whole circuit's state: a reused or
    # colliding fresh variable would merge two runs' T terms into one run
    t1, t2, h1, h2 = Gate(GateKind.T, 1), Gate(GateKind.T, 2), Gate(GateKind.H, 1), Gate(GateKind.H, 2)
    x1, x2 = parity_mask([1]), parity_mask([2])
    c = Circuit(2, (t2, h2, t2, h2, t2, h1, t1))
    assert _pairs(s.terms for s in extract_sliced(c, "first")) == [[(1, x2)], [(1, x2)], [(1, x2)], [(1, x1)]]


def test_slice_gates_and_hs_rebuild_the_input():
    hs = 0
    for c, slices in _random_extractions(35, 300):
        joined = []
        for s in slices:
            joined += s.gates
            if s.h is not None:
                joined.append(Gate(GateKind.H, s.h))
        assert tuple(joined) == c.gates
        assert [s.h for s in slices[:-1]] == [wire for wire, _, _ in reference_fold(c)[1]]
        assert slices[-1].h is None
        hs += len(slices) - 1
    assert hs > 300


# -- spans and rebasing -----------------------------------------------------------


def test_uncomputable_empty():
    q_out = (parity_mask([3]), parity_mask([2]))
    assert len(uncomputable_terms(PhasePolySet(), identity_state(2), q_out)) == 0


def test_uncomputable_single_qubit():
    p = PhasePolySet([(3, parity_mask([1]))])
    out = uncomputable_terms(p, (parity_mask([1]),), (parity_mask([2]),))
    assert out == p


def test_uncomputable_keeps_surviving_terms():
    # x1 survives the H on qubit 2; x2 does not
    q_in = (parity_mask([1]), parity_mask([2]))
    q_out = (parity_mask([1]), parity_mask([3]))
    p = PhasePolySet([(1, parity_mask([1])), (1, parity_mask([2])), (1, parity_mask([1, 2]))])
    out = uncomputable_terms(p, q_in, q_out)
    assert out == PhasePolySet([(1, parity_mask([2])), (1, parity_mask([1, 2]))])


def test_uncomputable_matches_two_solve_definition():
    # in the span of q_in but not of q_out, decided by exhaustive subset XOR
    rng = random.Random(11)
    hs = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        c = random_circuit(n, rng.randint(1, 30), rng)
        remaining = circuit_terms(c)
        for _, q_in, q_out in reference_fold(c)[1]:
            assert f2_rank(list(q_in)) == n
            terms = remaining.columns
            before, after = _span(q_in), _span(q_out)
            expected = [t for t in terms if t[1] & ~CONST_BIT in before and t[1] & ~CONST_BIT not in after]
            unc = uncomputable_terms(remaining, q_in, q_out)
            assert list(unc.columns) == expected
            # the paper's CNOT-OPT-B rule: a term leaves once it is uncomputable
            remaining = PhasePolySet(t for t in terms if t not in expected)
            hs += 1
    assert hs > 300


def _span(state):
    # every subset XOR of the rows' variable parts
    out = {0}
    for row in state:
        out |= {acc ^ (row & ~CONST_BIT) for acc in out}
    return out


def _span_membership_oracle(parity, state):
    return parity & ~CONST_BIT in _span(state)


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
    assert pm.columns == p.columns


def test_rebase_direct_basis_hit():
    basis = (parity_mask([1]), parity_mask([1, 2]))
    pm = rebase(PhasePolySet([(1, parity_mask([1, 2]))]), basis)
    assert pm.columns == ((1, parity_mask([2])),)  # selects wire 2 only


def test_rebase_constant_mismatch_becomes_flip_bit():
    # wire 1 holds 1 + x1; the term x1 rebases to wire 1 with the flip bit set
    basis = (parity_mask([1], const=True),)
    pm = rebase(PhasePolySet([(2, parity_mask([1]))]), basis)
    assert pm.columns == ((2, parity_mask([1], const=True)),)


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
        # each column re-applied to the basis reproduces its term
        assert _expand(pm, basis) == p


def _expand(pm, basis):
    # each column's selected basis rows XORed, with its flip bit as the constant
    out = PhasePolySet()
    for coeff, parity in pm.columns:
        acc = parity & CONST_BIT
        for i, row in enumerate(basis, start=1):
            if parity >> i & 1:
                acc ^= row
        out.add(coeff, acc)
    return out


def _random_extractions(seed, count, partition="own"):
    # random_circuit draws all nine gate kinds, X and Y included
    rng = random.Random(seed)
    for _ in range(count):
        c = random_circuit(rng.randint(2, 9), rng.randint(0, 30), rng)
        yield c, extract_sliced(c, partition)


def test_slice_maps_equal_f2_solve_of_slice_ends():
    flips = 0
    for c, slices in _random_extractions(23, 300):
        starts = run_starts(c)
        # each run ends where the next H starts; the last run's end is its own fold from its start
        ends = [q_in for _, q_in, _ in reference_fold(c)[1]] + [hfree_fold(hfree_runs(c)[-1], starts[-1])[1]]
        assert len(slices) == len(ends)
        for start, end, s in zip(starts, ends, slices):
            assert s.map == tuple(f2_solve(list(start), list(end)))
            flips += sum(row & CONST_BIT for row in s.map)
    assert flips > 100


def test_slice_terms_partition_terms_by_first_appearance():
    moved = 0
    for c, slices in _random_extractions(29, 300, "first"):
        touched, hs = reference_fold(c)
        assert len(slices) == len(hs) + 1
        merged = PhasePolySet()
        for k, (s, start) in enumerate(zip(slices, run_starts(c))):
            for coeff, parity in _expand(s.terms, start).columns:
                assert touched[parity][0] == k
                assert parity not in {p: k for k, p in merged.columns}  # each parity in one slice only
                merged.add(coeff, parity)
                moved += touched[parity][-1] != k
        assert merged == circuit_terms(c)
    assert moved > 50


def test_slice_terms_rebase_over_their_slice_start():
    # each slice holds its share of the global first-appearance partition,
    # rebased over the slice-start state
    kept = 0
    for c, slices in _random_extractions(31, 300, "first"):
        touched = reference_fold(c)[0]
        first = [PhasePolySet() for _ in slices]
        for coeff, parity in circuit_terms(c).columns:
            first[touched[parity][0]].add(coeff, parity)
        for s, global_terms, start in zip(slices, first, run_starts(c)):
            assert s.terms.columns == rebase(global_terms, start).columns  # order too
            kept += len(s.terms)
    assert kept > 300


def test_own_terms_and_slice_maps_are_extract_hfree_of_each_run():
    terms = cancelled = 0
    for c, slices in _random_extractions(33, 300):
        runs = hfree_runs(c)
        first = extract_sliced(c, "first")
        assert len(slices) == len(runs) == len(first)
        for s, s_first, run in zip(slices, first, runs):
            want_terms, want_map = hfree_fold(run, identity_state(c.num_qubits))
            assert s.terms.columns == want_terms.columns  # order too
            assert s.map == s_first.map == want_map
            terms += len(s.terms)
            # first_at: every key a phase gate of the run touches, to the first such gate
            at: dict[int, int] = {}
            for i, gt in enumerate(s.gates):
                if gt.kind in PHASE_COEFF:
                    at.setdefault(hfree_fold(s.gates[:i], identity_state(c.num_qubits))[1][gt.target - 1], i)
            assert s.first_at == s_first.first_at == at
            assert {key for _, key in s_first.terms.columns} <= at.keys()
            cancelled += len(at.keys() - {key for _, key in s.terms.columns})
    assert terms > 300
    assert cancelled > 0


def test_term_touched_again_after_a_later_h_stays_in_its_first_slice():
    t, tdg, h2 = Gate(GateKind.T, 1), Gate(GateKind.TDG, 1), Gate(GateKind.H, 2)
    slices = extract_sliced(Circuit(2, (t, h2, t)), "first")
    assert [s.terms for s in slices] == [PhasePolySet([(2, parity_mask([1]))]), PhasePolySet()]
    # cancelled to 0 in its slice, then touched again: it goes back to that slice
    slices = extract_sliced(Circuit(2, (t, tdg, h2, t)), "first")
    assert [s.terms for s in slices] == [PhasePolySet([(1, parity_mask([1]))]), PhasePolySet()]


def _pairs(terms):
    return [list(t.columns) for t in terms]


def test_partitions_match_the_reference_term_for_term():
    runs = moved = 0
    for partition in PARTITIONS:
        for c, slices in _random_extractions(37, 300, partition):
            want = partition_fold(c, partition)
            assert _pairs(s.terms for s in slices) == _pairs(want)  # order too
            runs += len(want)
            if partition == "first":
                moved += want != partition_fold(c, "own")
    assert runs > 1000 and moved > 50


def test_cancelled_parity_touched_again_keeps_its_first_run_and_goes_last():
    # x1 cancels to 0 and is touched again, after x2's term: its term now comes after x2's
    t1, tdg1, t2 = Gate(GateKind.T, 1), Gate(GateKind.TDG, 1), Gate(GateKind.T, 2)
    s2, h2 = Gate(GateKind.S, 2), Gate(GateKind.H, 2)
    x1, x2 = parity_mask([1]), parity_mask([2])
    cases = {
        # within one run: both partitions put x1 after x2
        (t1, tdg1, s2, t1): ([[(2, x2), (1, x1)]], [[(2, x2), (1, x1)]]),
        # in a later run: under "first" x1 goes back to run 0, after x2; under "own" run 1 holds the new T
        (t1, s2, tdg1, h2, t1, t2): ([[(2, x2)], [(1, x1), (1, x2)]], [[(2, x2), (1, x1)], [(1, x2)]]),
        # cancelled only across runs: "first" drops it from run 0; "own" keeps each run's coefficient
        (t1, s2, h2, tdg1, t2): ([[(1, x1), (2, x2)], [(7, x1), (1, x2)]], [[(2, x2)], [(1, x2)]]),
    }
    for gates, wants in cases.items():
        c = Circuit(2, gates)
        for partition, want in zip(PARTITIONS, wants):
            assert _pairs(s.terms for s in extract_sliced(c, partition)) == want, (gates, partition)
            assert _pairs(partition_fold(c, partition)) == want, (gates, partition)


def test_unknown_partition_is_rejected():
    with pytest.raises(ValueError, match="partition"):
        extract_sliced(Circuit(1, ()), "all")


def test_t_and_tdg_in_different_slices_emit_no_phase_gate():
    g = ConnectivityGraph.from_edges(2, [(1, 2)])
    c = Circuit(2, (Gate(GateKind.T, 1), Gate(GateKind.H, 2), cnot(2, 1), cnot(2, 1), Gate(GateKind.TDG, 1)))
    slices = extract_sliced(c, "first")
    assert len(circuit_terms(c)) == 0 and not any(s.terms for s in slices)
    out, _ = cnot_opt_b(c, g)
    assert [gt.kind for gt in out.gates if gt.kind in PHASE_COEFF] == []


def test_rebase_matches_exhaustive_reference():
    rng = random.Random(25)
    inside = outside = flipped = 0
    for c, _ in _random_extractions(27, 200):
        for basis in run_starts(c):
            terms = []
            for _ in range(rng.randint(1, 6)):  # random XORs of the basis rows
                acc = CONST_BIT if rng.random() < 0.5 else 0
                for row in basis:
                    if rng.random() < 0.5:
                        acc ^= row
                terms.append((rng.randint(1, 7), acc))
            p = PhasePolySet(terms)
            pm = rebase(p, basis)
            # the empty XOR is a constant term, a global phase that rebase drops
            assert _expand(pm, basis) == PhasePolySet(t for t in p.columns if t[1] & ~CONST_BIT)
            inside += len(pm.columns)
            flipped += sum(parity & CONST_BIT for _, parity in pm.columns)
            # a random parity over every variable of the extraction, usually outside the span
            num_vars = c.num_qubits + sum(gt.kind is GateKind.H for gt in c.gates)
            stray = PhasePolySet([(1, rng.getrandbits(num_vars + 1))])
            if _span_membership_oracle(stray.columns[0][1], basis):
                assert _expand(rebase(stray, basis), basis) == stray
            else:
                with pytest.raises(ValueError):
                    rebase(stray, basis)
                outside += 1
    assert min(inside, outside, flipped) > 100


def test_dump_format():
    p = PhasePolySet([(1, parity_mask([1, 4, 5], const=True)), (2, parity_mask([2]))])
    assert dump_phasepoly(p) == "1 : 1⊕x1⊕x4⊕x5\n2 : x2\n"
