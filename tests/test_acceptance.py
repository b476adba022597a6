"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import random
import statistics
import time
from contextlib import contextmanager

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from cnotsynth.circuit import Circuit, Gate, GateKind, cnot, cnot_count, connectivity_violations
from cnotsynth.linalg import AugmentedTransform, ParityMatrix, transform_of_circuit
from cnotsynth.linsynth import linear_tf_synth
from cnotsynth.phasepoly import PhasePolySet, extract_hfree
from cnotsynth.phasesynth import phase_nw_synth
from cnotsynth.pipeline import bench_random, bench_tsv, random_circuit, resynthesize
from cnotsynth.topology import (
    ConnectivityGraph,
    PRESET_NAMES,
    grid_graph,
    preset_graph,
    steiner_tree,
)
from cnotsynth.verify import circuit_unitary, phase_poly_equal
from tests.conftest import (
    APPENDIX_A_BITS,
    APPENDIX_PHASE_TERMS,
    random_invertible,
    traced,
    unitaries_equal_up_to_phase,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _pairs(gates):
    return [(g.control, g.target) for g in gates]


# -- criterion 1: linear synthesis golden ----------------------------------------


def test_criterion_1_linear_synth_golden(grid2x3):
    with criterion(1, "26-CNOT linear synthesis of the 6x6 instance"):
        a = AugmentedTransform.from_bits(APPENDIX_A_BITS)
        t0 = time.perf_counter()
        circ = linear_tf_synth(a, grid2x3)
        elapsed = time.perf_counter() - t0
        assert cnot_count(circ) == 26
        assert transform_of_circuit(circ) == a
        assert connectivity_violations(circ, grid2x3) == []
        assert elapsed < 1.0


# -- criterion 2: intermediate elimination traces -----------------------------------


EXPECTED_PHASE1 = {
    # column: (diagonal-fix pairs, tree pairs)
    1: ([], [(4, 5), (3, 4), (1, 2), (2, 3), (1, 2)]),
    2: ([(3, 2)], [(3, 4), (2, 3), (2, 5), (5, 6), (2, 5)]),
    3: ([], [(4, 5), (3, 4)]),
    4: ([(5, 4)], [(4, 5)]),
    5: ([], []),
    6: ([], []),
}

EXPECTED_PHASE2 = {
    # column: (tree pairs, correction pairs)
    1: ([(5, 4), (2, 5), (1, 2)], [(5, 4)]),
    2: ([(2, 3), (2, 5)], []),
    3: ([(5, 6), (4, 5), (5, 6), (4, 5), (3, 4)], []),
    4: ([], []),
    5: ([], []),
    6: ([], []),
}

EXPECTED_MATRICES = {
    (1, 1): [
        [1, 1, 0, 1, 1, 0],
        [0, 0, 1, 1, 0, 1],
        [0, 1, 0, 0, 0, 1],
        [0, 1, 1, 1, 1, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 1],
    ],
    (1, 2): [
        [1, 1, 0, 1, 1, 0],
        [0, 1, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 1],
        [0, 0, 1, 1, 1, 1],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    (1, 3): [
        [1, 1, 0, 1, 1, 0],
        [0, 1, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ],
    (1, 4): [
        [1, 1, 0, 1, 1, 0],
        [0, 1, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    (2, 1): [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 1, 0, 1],
    ],
    (2, 2): [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 1, 1, 0, 1],
    ],
    (2, 3): [[1 if i == j else 0 for j in range(6)] for i in range(6)],
}


def test_criterion_2_elimination_traces(grid2x3):
    with criterion(2, "step-for-step elimination traces of the 6x6 instance"):
        a = AugmentedTransform.from_bits(APPENDIX_A_BITS)
        _, traces = traced(linear_tf_synth, a, grid2x3)
        by_key = {(t.phase, t.column): t for t in traces}
        for col, (diag, tree) in EXPECTED_PHASE1.items():
            assert _pairs(by_key[1, col].diag) == diag, (1, col)
            assert _pairs(by_key[1, col].tree) == tree, (1, col)
        for col, (tree, corr) in EXPECTED_PHASE2.items():
            assert _pairs(by_key[2, col].diag) == [], (2, col)
            assert _pairs(by_key[2, col].tree) == tree, (2, col)
            assert _pairs(by_key[2, col].corrections) == corr, (2, col)
        for (phase, col), rows in EXPECTED_MATRICES.items():
            expected = AugmentedTransform.from_bits([r + [0] for r in rows])
            assert by_key[phase, col].matrix == expected, (phase, col)


# -- criterion 3: phase network golden ------------------------------------------------


EXPECTED_PHASE_EVENTS = [
    # (root, terminals, cnot pairs, placed kinds)
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


def test_criterion_3_phase_network_golden(grid2x3):
    with criterion(3, "per-iteration phase network synthesis of the 8x7 instance"):
        pm = ParityMatrix.from_terms(APPENDIX_PHASE_TERMS)
        t0 = time.perf_counter()
        (circ, _), events = traced(phase_nw_synth, pm, grid2x3)
        elapsed = time.perf_counter() - t0
        assert len(events) == len(EXPECTED_PHASE_EVENTS)
        # Roots, terminals, CNOT batches, phase-gate kinds and wires reproduce the
        # walkthrough's iterations 4, 5, 8, 9, 10, 11, 12, 13, 14. The X pattern
        # follows flip bits tracked through CNOTs (the walkthrough's figures drop
        # them en route, which would break the extraction equality asserted below;
        # its X set differs at iterations 5, 8, 9, 13, 14).
        for ev, (root, terminals, cnot_pairs, placed) in zip(events, EXPECTED_PHASE_EVENTS):
            assert ev.root == root
            assert ev.terminals == frozenset(terminals)
            assert _pairs(ev.cnots) == cnot_pairs
            assert [g.kind for g in ev.placements] == placed
            assert all(g.target == root for g in ev.placements)
        terms, _ = extract_hfree(circ)
        assert terms == PhasePolySet(APPENDIX_PHASE_TERMS)
        assert connectivity_violations(circ, grid2x3) == []
        assert elapsed < 1.0


# -- criteria 4 and 5: equivalence suite and overhead ordering ---------------------------


def _t_count(c) -> int:
    return sum(1 for gt in c.gates if gt.kind in (GateKind.T, GateKind.TDG))


@pytest.fixture(scope="module")
def equivalence_suite():
    g = preset_graph("9q-square")
    rng = random.Random("acceptance-suite")
    counts = [3, 5, 10, 20, 30]
    results = []
    t0 = time.perf_counter()
    for i in range(200):
        count = counts[i % len(counts)]
        circ = random_circuit(9, count, rng)
        u_in = circuit_unitary(circ)
        row = {"count": count, "t": _t_count(circ)}
        for algo in ("swap", "opt-a", "opt-b"):
            out, report = resynthesize(circ, g, algo)
            row[algo] = {
                "violations": len(connectivity_violations(out, g)),
                "equivalent": unitaries_equal_up_to_phase(u_in, circuit_unitary(out)),
                "overhead": report.overhead_pct,
                "cnots": report.output_cnots,
                "t": _t_count(out),
            }
        results.append(row)
    return results, time.perf_counter() - t0


def test_criterion_4_equivalence_suite(equivalence_suite):
    with criterion(4, "200 random 9-qubit circuits through all three pipelines"):
        results, elapsed = equivalence_suite
        assert len(results) == 200
        for row in results:
            for algo in ("swap", "opt-a", "opt-b"):
                assert row[algo]["violations"] == 0, row
                assert row[algo]["equivalent"], row
            # each run is emitted at no more CNOTs than its SWAP routing
            for algo in ("opt-a", "opt-b"):
                assert row[algo]["cnots"] <= row["swap"]["cnots"], row
            # each merged term with an odd coefficient takes one T or TDG, and
            # needs at least one of the input's
            for algo in ("swap", "opt-a", "opt-b"):
                assert row[algo]["t"] <= row["t"], row
        assert elapsed < 600.0


def test_criterion_5_overhead_ordering(equivalence_suite):
    with criterion(5, "median overhead: both slice-and-build passes beat the SWAP template"):
        results, _ = equivalence_suite
        opta = statistics.median(r["opt-a"]["overhead"] for r in results)
        optb = statistics.median(r["opt-b"]["overhead"] for r in results)
        swap = statistics.median(r["swap"]["overhead"] for r in results)
        assert opta <= swap, (opta, swap)
        assert optb <= swap, (optb, swap)


# -- criterion 6: Steiner approximation bound ---------------------------------------------


def _induced_connected(g: ConnectivityGraph, nodes) -> bool:
    start = next(iter(nodes))
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in nodes and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == nodes


def _optimal_weight(g: ConnectivityGraph, terminals: set[int]) -> int:
    others = sorted(set(g.vertices) - terminals)
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            if _induced_connected(g, terminals | set(extra)):
                return len(terminals) + r - 1
    raise AssertionError("terminals not connected")


def _max_optimal_leaves(g: ConnectivityGraph, terminals: set[int], weight: int) -> int:
    best = 2
    others = sorted(set(g.vertices) - terminals)
    for extra in itertools.combinations(others, weight + 1 - len(terminals)):
        nodes = terminals | set(extra)
        if not _induced_connected(g, nodes):
            continue
        sub = nx.Graph([(u, v) for u, v in g.edges if u in nodes and v in nodes])
        sub.add_nodes_from(nodes)
        for tree in nx.SpanningTreeIterator(sub):
            best = max(best, sum(1 for v in tree if tree.degree(v) == 1))
    return best


def test_criterion_6_steiner_bound():
    with criterion(6, "approximation bound on every connected graph with <= 7 vertices"):
        checked = 0
        for g_nx in graph_atlas_g():
            n = g_nx.number_of_nodes()
            if n < 2 or not nx.is_connected(g_nx):
                continue
            g = ConnectivityGraph.from_edges(n, [(u + 1, v + 1) for u, v in g_nx.edges()])
            for k in (2, 3, 4):
                if k > n:
                    continue
                for terminals in itertools.combinations(range(1, n + 1), k):
                    term_set = set(terminals)
                    tree = steiner_tree(g, term_set, terminals[0])
                    opt = _optimal_weight(g, term_set)
                    checked += 1
                    if tree.edge_count == opt:
                        continue
                    leaves = _max_optimal_leaves(g, term_set, opt)
                    assert tree.edge_count <= 2 * (1 - 1 / leaves) * opt, (
                        sorted(g.edges),
                        terminals,
                        tree.edge_count,
                        opt,
                        leaves,
                    )
        assert checked > 80000  # the atlas sweep really was exhaustive


# -- criterion 7: quadratic CNOT growth ----------------------------------------------------


def test_criterion_7_quadratic_scaling():
    with criterion(7, "CNOT counts stay below c*n^2 with c calibrated at n=4"):
        grids = {4: (2, 2), 6: (2, 3), 9: (3, 3), 12: (3, 4), 16: (4, 4)}
        rng = random.Random("acceptance-scaling")
        worst = {}
        for n, (r, cgrid) in grids.items():
            g = grid_graph(r, cgrid)
            trials = 50 if n == 4 else 20
            worst[n] = max(
                cnot_count(linear_tf_synth(random_invertible(rng, n), g))
                for _ in range(trials)
            )
        c = 1.5 * worst[4] / 4**2
        for n, observed in worst.items():
            assert observed <= c * n * n, (n, observed, c * n * n)


# -- criterion 8: cross-oracle soundness -----------------------------------------------------


def test_criterion_8_cross_oracle():
    with criterion(8, "phase-poly equality implies unitary equivalence, 500 circuits"):
        rng = random.Random("acceptance-oracle")
        single = [k for k in GateKind if k not in (GateKind.H, GateKind.CNOT)]
        canceling = [(GateKind.T, GateKind.TDG), (GateKind.S, GateKind.SDG), (GateKind.Z, GateKind.Z)]

        def random_hfree(n):
            gates = []
            for _ in range(rng.randint(1, 14)):
                if n > 1 and rng.random() < 0.4:
                    c, t = rng.sample(range(1, n + 1), 2)
                    gates.append(cnot(c, t))
                else:
                    gates.append(Gate(rng.choice(single), rng.randint(1, n)))
            return Circuit(n, tuple(gates))

        agreements = 0
        for i in range(500):
            n = rng.randint(1, 6)
            c1 = random_hfree(n)
            if i % 2 == 0:
                gates = list(c1.gates)
                for _ in range(rng.randint(1, 3)):
                    a, b = canceling[rng.randrange(len(canceling))]
                    q = rng.randint(1, n)
                    pos = rng.randint(0, len(gates))
                    gates[pos:pos] = [Gate(a, q), Gate(b, q)]
                c2 = Circuit(n, tuple(gates))
            else:
                c2 = random_hfree(n)
            if phase_poly_equal(c1, c2):
                agreements += 1
                assert unitaries_equal_up_to_phase(circuit_unitary(c1), circuit_unitary(c2))
        assert agreements >= 200


# -- criterion 9: benchmark table shape --------------------------------------------------------


def test_criterion_9_bench_table_shape():
    with criterion(9, "benchmark table covers every preset with the Table-1 columns"):
        presets = [name for name in PRESET_NAMES if name != "appendix-2x3"]
        graphs = {name: preset_graph(name) for name in presets}
        rows = bench_random(graphs, num_qubits=9, counts=[3, 5], trials=1, seed=11)
        tsv = bench_tsv(rows)
        lines = tsv.strip().split("\n")
        header = lines[0].split("\t")
        assert header == [
            "architecture",
            "qubits",
            "initial-cnots",
            "swap-overhead%",
            "opt-a-overhead%",
            "opt-a-time-s",
            "opt-b-overhead%",
            "opt-b-time-s",
        ]
        assert len(lines) == 1 + len(presets) * 2
        seen = {(row.split("\t")[0], row.split("\t")[2]) for row in lines[1:]}
        assert seen == {(p, str(c)) for p in presets for c in (3, 5)}
        for row in lines[1:]:
            cells = row.split("\t")
            assert len(cells) == len(header)
            float(cells[3]), float(cells[4]), float(cells[5])  # numeric columns parse
