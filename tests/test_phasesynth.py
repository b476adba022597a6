import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cnotsynth import phasesynth
from cnotsynth.circuit import Gate, GateKind, cnot, cnot_count, connectivity_violations, write_circuit
from cnotsynth.linalg import CONST_BIT, parity_mask
from cnotsynth.linsynth import _route
from cnotsynth.phasepoly import PhasePolySet, extract_hfree
from cnotsynth.phasesynth import _pivot, phase_nw_synth
from cnotsynth.topology import PRESET_NAMES, grid_graph, preset_graph
from tests.conftest import (
    APPENDIX_PHASE_TERMS,
    assert_budget_contract,
    random_connected_graph,
    traced,
    two_terminal_expansion_record,
)


# -- pivot selection ----------------------------------------------------------


def _pivot_oracle(masks, candidates):
    """Literal restatement of the selection rule, kept independent of the implementation."""
    proper = []
    all_ones = []
    for j in sorted(candidates):
        ones = sum(1 for m in masks if m >> j & 1)
        if 0 < ones < len(masks):
            proper.append((ones, j))
        elif ones == len(masks):
            all_ones.append(j)
    if proper:
        best = max(score for score, _ in proper)
        return min(j for score, j in proper if score == best)
    return min(all_ones) if all_ones else min(candidates)


def _pivot_of_masks(masks, candidates):
    """The pivot :func:`_pivot` picks for the columns ``masks``, their rows built from the masks."""
    rows = {j: sum(1 << k for k, m in enumerate(masks) if m >> j & 1) for j in candidates}
    return _pivot(rows, (1 << len(masks)) - 1, candidates)


def _columns_to_masks(columns, rows):
    # columns given as 0/1 row-major grids
    return [
        sum(1 << (r + 1) for r in range(rows) if grid[r]) for grid in columns
    ]


def test_pivot_appendix_iteration1():
    # all seven input columns: row 2 has the largest cofactor (5 of 7)
    masks = [m for _, m in [(c, p & ~1) for c, p in APPENDIX_PHASE_TERMS]]
    assert _pivot_of_masks(masks, tuple(range(1, 7))) == 2


def test_pivot_prefers_proper_split():
    # {p1, p3} of the worked example: rows 4 and 5 agree everywhere, so the
    # balanced rows 1 and 6 are the only usable pivots; 1 wins the tie
    masks = [parity_mask([1, 4, 5]), parity_mask([4, 5, 6])]
    assert _pivot_of_masks(masks, (1, 3, 4, 5, 6)) == 1


def test_pivot_single_column_prefers_one_row():
    # a lone column: no row splits it, so take its smallest support row
    masks = [parity_mask([4, 5, 6])]
    assert _pivot_of_masks(masks, (3, 4, 5, 6)) == 4


def test_pivot_exhaustive_against_oracle():
    for rows in (2, 3):
        candidates = tuple(range(1, rows + 1))
        grids = list(itertools.product([0, 1], repeat=rows))
        for cols in itertools.product(grids, repeat=3):
            masks = _columns_to_masks(cols, rows)
            if not all(masks):
                continue  # zero columns never reach the pivot step
            assert _pivot_of_masks(masks, candidates) == _pivot_oracle(masks, candidates)


# -- upfront single-variable handling ------------------------------------------


def test_single_variable_term(grid2x3):
    pm = PhasePolySet([(1, parity_mask([1]))])
    circ, tf = phase_nw_synth(pm, grid2x3)
    assert list(circ.gates) == [Gate(GateKind.T, 1)]
    assert tf.is_identity()


def test_complemented_single_variable_term(grid2x3):
    pm = PhasePolySet([(4, parity_mask([2], const=True))])
    circ, tf = phase_nw_synth(pm, grid2x3)
    assert list(circ.gates) == [Gate(GateKind.X, 2), Gate(GateKind.Z, 2)]
    assert tf.rows[1] == parity_mask([2], const=True)  # the X persists


def test_plain_and_complemented_on_same_wire(grid2x3):
    pm = PhasePolySet([(1, parity_mask([3])), (2, parity_mask([3], const=True))])
    circ, _ = phase_nw_synth(pm, grid2x3)
    assert list(circ.gates) == [
        Gate(GateKind.T, 3),
        Gate(GateKind.X, 3),
        Gate(GateKind.S, 3),
    ]


def test_empty_input(grid2x3):
    pm = PhasePolySet([])
    circ, tf = phase_nw_synth(pm, grid2x3)
    assert circ.gates == ()
    assert tf.is_identity()


# -- the worked example, step for step ------------------------------------------


def _pairs(gates):
    return [(g.control, g.target) for g in gates]


def test_appendix_event_trace(grid2x3, appendix_parity_matrix):
    (circ, _), events = traced(phase_nw_synth, appendix_parity_matrix, grid2x3)
    # no single-variable terms: the Steiner expansions account for every gate
    assert [g for ev in events for g in ev.cnots + ev.placements] == list(circ.gates)

    expected = [
        # (root, terminals, cnot pairs, placements)
        (4, {4, 5, 6}, [(6, 5), (5, 4)], [GateKind.X, GateKind.Z]),
        (1, {1, 4, 6}, [(5, 6), (4, 5), (5, 6), (4, 5), (6, 1)], [GateKind.T]),
        (2, {2, 6}, [(5, 2), (6, 5), (5, 2), (6, 5)], [GateKind.X, GateKind.T]),
        (2, {2, 3, 5, 6}, [(6, 5), (5, 2), (3, 2)], [GateKind.X, GateKind.S]),
        (2, {1, 2}, [(1, 2)], []),
        (2, {2, 5}, [(5, 2)], [GateKind.X, GateKind.SDG]),
        (2, {2, 3}, [(3, 2)], []),
        (2, {2, 5}, [(5, 2)], [GateKind.X, GateKind.TDG]),
        (2, {2, 4, 5, 6}, [(6, 5), (4, 5), (5, 2)], [GateKind.X, GateKind.Z]),
    ]
    # Roots, terminals, CNOT batches, phase-gate kinds and wires all follow the
    # published walkthrough (its iterations 4, 5, 8, 9, 10, 11, 12, 13, 14).
    # The X gates differ in four places: the walkthrough's figures stop tracking
    # a wire's flip bit once a CNOT carries it to another wire, so they show
    # X only at iterations 4, 5 and 11; with the flip bit tracked through CNOTs
    # (as the transform rules require) the wire already holds the constant at
    # iteration 5 and lacks it at 8, 9, 13 and 14. Only this placement makes
    # the extraction check below reproduce the seven input terms exactly.
    assert len(events) == len(expected)
    for ev, (root, terminals, pairs, placed) in zip(events, expected):
        assert ev.kind == "steiner"
        assert ev.root == root
        assert ev.terminals == frozenset(terminals)
        assert _pairs(ev.cnots) == pairs
        assert [g.kind for g in ev.placements] == placed
        wire = {root}  # every placement in this instance lands on the event's root wire
        assert {g.target for g in ev.placements} <= wire

    assert cnot_count(circ) == 21
    terms, _ = extract_hfree(circ)
    assert terms == PhasePolySet(APPENDIX_PHASE_TERMS)


def test_two_terminal_expansion_is_the_route():
    # the alg-4 record of a two-terminal expansion, rooted at the leaf end of
    # the merge path, has exactly the CNOTs of the route from leaf to root
    for name in PRESET_NAMES:
        g = preset_graph(name)
        for root, leaf in itertools.permutations(g.vertices, 2):
            top, tops, edges = two_terminal_expansion_record(g, root, leaf)
            assert (top, tops) == (leaf, (root,)), (name, root, leaf)
            assert [cnot(u, v) for u, v in edges] == list(_route(g, leaf, root)[1]), (name, root, leaf)
        # one term on two wires is one expansion, rooted at its smaller wire; its event holds a list
        for root, leaf in itertools.combinations(g.vertices, 2):
            pm = PhasePolySet([(1, parity_mask([root, leaf]))])
            (circ, _), events = traced(phase_nw_synth, pm, g)
            (ev,) = events
            assert (ev.root, ev.terminals) == (root, frozenset({root, leaf}))
            assert type(ev.cnots) is list and ev.cnots == list(_route(g, leaf, root)[1]), (name, root, leaf)
            assert list(circ.gates) == ev.cnots + ev.placements


def test_appendix_iteration4_detail(grid2x3, appendix_parity_matrix):
    _, events = traced(phase_nw_synth, appendix_parity_matrix, grid2x3)
    ev = events[0]
    assert _pairs(ev.cnots) == [(6, 5), (5, 4)]
    assert [(g.kind, g.target) for g in ev.placements] == [
        (GateKind.X, 4),
        (GateKind.Z, 4),
    ]


def test_appendix_iteration14_detail(grid2x3, appendix_parity_matrix):
    _, events = traced(phase_nw_synth, appendix_parity_matrix, grid2x3)
    ev = events[-1]
    assert _pairs(ev.cnots) == [(6, 5), (4, 5), (5, 2)]
    assert ev.placements[-1] == Gate(GateKind.Z, 2)


# -- properties -----------------------------------------------------------------


def _random_parity_matrix(rng, n, max_terms):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mask = 0
        while not mask:
            mask = rng.getrandbits(n) << 1
        const = rng.random() < 0.4
        terms.append((rng.randint(1, 7), mask | (1 if const else 0)))
    return PhasePolySet(terms)


def test_random_round_trip(grid2x3):
    rng = random.Random(77)
    for _ in range(100):
        pm = _random_parity_matrix(rng, 6, 10)
        circ, tf = phase_nw_synth(pm, grid2x3)
        assert connectivity_violations(circ, grid2x3) == []
        terms, state = extract_hfree(circ)
        # soundness: exactly the input terms, no spurious phases
        assert terms == pm
        # the reported residual action matches the real one
        assert list(state) == tf.rows


def test_composite_coefficients(grid2x3):
    # coefficients 3 and 5 have no single gate; their decompositions must merge back
    pm = PhasePolySet([(3, parity_mask([1, 2])), (5, parity_mask([4, 5], const=True))])
    circ, _ = phase_nw_synth(pm, grid2x3)
    terms, _ = extract_hfree(circ)
    assert terms == pm


def test_determinism(grid2x3, appendix_parity_matrix):
    a, _ = phase_nw_synth(appendix_parity_matrix, grid2x3)
    b, _ = phase_nw_synth(appendix_parity_matrix, grid2x3)
    assert a == b


def test_other_presets():
    rng = random.Random(123)
    for g in (preset_graph("9q-square"), preset_graph("ibm-q20-tokyo"), grid_graph(5, 5)):
        for _ in range(10):
            pm = _random_parity_matrix(rng, g.num_vertices, 8)
            (circ, tf), events = traced(phase_nw_synth, pm, g)
            assert (circ, tf) == phase_nw_synth(pm, g)
            assert connectivity_violations(circ, g) == []
            terms, _ = extract_hfree(circ)
            assert terms == pm
            # the Steiner expansions emit a suffix of the circuit; the gates
            # before it place single-variable terms and hold no CNOT
            suffix = [gt for ev in events for gt in ev.cnots + ev.placements]
            prefix = circ.gates[: len(circ.gates) - len(suffix)]
            assert list(circ.gates[len(prefix):]) == suffix
            assert all(gt.kind is not GateKind.CNOT for gt in prefix)


def _invariant_inputs(rng, n, count):
    """``count`` parity matrices over n wires, cycling through four families of terms."""
    all_wires = (1 << (n + 1)) - 2
    inputs = []
    for k in range(count):
        terms = []
        if k % 4 == 0:  # sparse: each term on 2-4 wires
            for _ in range(rng.randint(1, 12)):
                mask = sum(1 << w for w in rng.sample(range(1, n + 1), rng.randint(2, min(4, n))))
                terms.append((rng.randint(1, 7), mask | (rng.random() < 0.4)))
        elif k % 4 == 1:  # dense random masks
            terms = [(rng.randint(1, 7), rng.getrandbits(n + 1)) for _ in range(rng.randint(1, 16))]
        elif k % 4 == 2:  # a few masks, each with both flip bits
            for _ in range(rng.randint(1, 4)):
                mask = rng.getrandbits(n) << 1
                terms += [(rng.randint(1, 7), mask), (rng.randint(1, 7), mask | CONST_BIT)]
        else:  # all ones, or all ones but one or two wires
            for _ in range(rng.randint(1, 6)):
                mask = all_wires & ~sum(1 << w for w in rng.sample(range(1, n + 1), rng.randint(0, min(2, n - 2))))
                terms.append((rng.randint(1, 7), mask | (rng.random() < 0.5)))
        inputs.append(PhasePolySet(t for t in terms if t[1] & ~CONST_BIT))  # the network rejects a constant-only term
    return inputs


def test_cofactor_invariant_holds_at_every_pop_and_expansion(monkeypatch):
    # the module docstring's invariant on real runs: a frame without a target is
    # popped before any expansion; after a pop's collection the rows that held
    # every popped column, the target's aside, hold none, the columns left are
    # 1 at the target, 0 outside it and the candidates and nonzero on the
    # candidates; no expansion changes or leaves single a stacked frame's columns.
    # The loop's locals are read from the hooks' caller frame: _pivot is called
    # at every pop whose columns survive collection, _route or _subtrees at the
    # start of each expansion, the trace sink after it. A pop that collection
    # empties calls no _pivot, and for it every check is vacuous, as cols = 0.
    rng = random.Random(29)
    graphs = [preset_graph(name) for name in PRESET_NAMES] + [grid_graph(3, 4), grid_graph(2, 5)]
    graphs += [random_connected_graph(rng, rng.randint(3, 10)) for _ in range(17)]
    expansions = stacked = first = 0  # expansions, those made with columns waiting on the stack, and the run's first
    full, before = [], []  # the expansion's rows holding every popped column, and the stacked frames' columns

    def checked_pivot(rows, cols, candidates):
        target = sys._getframe(1).f_locals["target"]
        assert target is not None or expansions == first
        on_candidates = 0
        for j in candidates:
            on_candidates |= rows[j]
        assert cols & ~on_candidates == 0
        assert all(rows[j] & cols == 0 for j in range(1, len(rows)) if j not in candidates and j != target)
        if target is not None:
            assert rows[target] & cols == cols
        return _pivot(rows, cols, candidates)

    def expansion_spy(search):
        def spy(*args):
            nonlocal expansions, stacked, full, before
            loop = sys._getframe(1).f_locals
            rows, cols, target = loop["rows"], loop["cols"], loop["target"]
            full = [j for j in range(1, len(rows)) if j != target and rows[j] & cols == cols]
            before = [frame[0] for frame in loop["stack"]]
            expansions, stacked = expansions + 1, stacked + any(before)
            return search(*args)

        return spy

    def checked_expansion(kind, **event):
        loop = sys._getframe(1).f_locals
        rows, cols = loop["rows"], loop["cols"]
        assert all(rows[j] & cols == 0 for j in full)
        assert [frame[0] for frame in loop["stack"]] == before
        ones = twos = 0
        for r in rows:
            twos |= ones & r
            ones |= r
        for cols in before:
            assert cols & ~twos == 0

    monkeypatch.setattr(phasesynth, "_pivot", checked_pivot)
    monkeypatch.setattr(phasesynth, "_route", expansion_spy(phasesynth._route))
    monkeypatch.setattr(phasesynth, "_subtrees", expansion_spy(phasesynth._subtrees))
    for g in graphs:
        n = g.num_vertices
        for pm in _invariant_inputs(rng, n, 40):
            first = expansions
            circ, tf = phase_nw_synth(pm, g, trace=checked_expansion)
            terms, state = extract_hfree(circ)
            assert terms == pm
            assert list(state) == tf.rows
    assert expansions > stacked > 1000


def _pin_phase_inputs(rng, n):
    """Eight parity matrices of 20 to 80 multi-variable terms: half sparse (2-4 wires a term), half mixed."""
    inputs = []
    for k in range(8):
        terms = []
        for _ in range(rng.randint(20, 80)):
            if k % 2 == 0 or rng.random() < 0.5:
                mask = sum(1 << w for w in rng.sample(range(1, n + 1), rng.randint(2, 4)))
            else:
                mask = 0
                while mask.bit_count() < 2:
                    mask = rng.getrandbits(n) << 1
            terms.append((rng.randint(1, 7), mask | (rng.random() < 0.4)))
        inputs.append(PhasePolySet(terms))
    return inputs


# sha256 over every output circuit, every traced expansion (root, sorted terminals,
# CNOT pairs, placed gates) and the residual rows of _pin_phase_inputs(random.Random(name), n)
PINNED_PHASE = {
    "16q-square": "8e98d2e7acc6292e361772d452b05fb9824bd16657a1bcb06705396b5539facf",
    "ibm-q20-tokyo": "e9de2bd3dd405f69c50fecc1c81c4e5e7d6c714744ac68e9ce7a9a8d1f1f8f20",
    "grid-5x5": "40edb465fec639f919de23045f89b6d20ee66a8552f731ba1b83eec921f2ea1f",
}


def test_phase_network_pinned():
    for name in PINNED_PHASE:
        g = grid_graph(5, 5) if name == "grid-5x5" else preset_graph(name)
        digest = hashlib.sha256()
        for pm in _pin_phase_inputs(random.Random(name), g.num_vertices):
            (circ, tf), events = traced(phase_nw_synth, pm, g)
            digest.update(write_circuit(circ).encode())
            for e in events:
                placed = [(gt.kind.value, gt.target) for gt in e.placements]
                digest.update(repr((e.root, sorted(e.terminals), _pairs(e.cnots), placed)).encode())
            digest.update(repr(tf.rows).encode())
        assert digest.hexdigest() == PINNED_PHASE[name], name


def test_width_mismatch():
    g = preset_graph("appendix-2x3")
    pm = PhasePolySet([(1, parity_mask([1])), (1, parity_mask([2, 7], const=True))])
    with pytest.raises(ValueError, match="parity 1⊕x2⊕x7 uses variables beyond x6"):
        phase_nw_synth(pm, g)


def test_constant_only_term_is_rejected():
    # a global phase has no wire to be placed on; the error names the term
    g = preset_graph("appendix-2x3")
    for const, named in ((True, r"\(3, 1\)"), (False, r"\(3, 0\)")):
        pm = PhasePolySet([(1, parity_mask([1, 2])), (3, parity_mask([], const=const))])
        with pytest.raises(ValueError, match=f"phase term {named} is constant-only"):
            phase_nw_synth(pm, g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("appendix-2x3", 12), ("9q-square", 12), ("ibm-qx5", 12), ("16q-square", 60), ("ibm-q20-tokyo", 60)]), st.integers(min_value=0))
def test_budget_is_reached_exactly_when_the_unbudgeted_network_reaches_it(graph, seed):
    # up to 60 terms on two graphs, so that budgets run out deep in the stack
    name, max_terms = graph
    g = preset_graph(name)
    rng = random.Random(seed)
    n = g.num_vertices
    terms = [(rng.randint(1, 7), rng.getrandbits(n + 1)) for _ in range(rng.randint(0, max_terms))]
    pm = PhasePolySet(t for t in terms if t[1] & ~CONST_BIT)  # the network rejects a constant-only term
    assert_budget_contract(phase_nw_synth, (pm, g), lambda result: cnot_count(result[0]))
