
import hashlib
import os
import random
from collections import Counter

import pytest

from cnotsynth.circuit import (
    Circuit,
    CircuitSyntaxError,
    Gate,
    GateKind,
    cnot,
    cnot_count,
    connectivity_violations,
    parse_circuit,
    write_circuit,
)
from cnotsynth import linsynth, pipeline
from cnotsynth.linalg import CONST_BIT, AugmentedTransform
from cnotsynth.linsynth import _cut, _path_passes, _path_record, linear_tf_synth, row_op
from cnotsynth.pipeline import (
    BENCH_COLUMNS,
    BenchRow,
    ResynthesisReport,
    _chain,
    _rebuild,
    _route,
    bench_random,
    bench_tsv,
    cnot_opt_a,
    cnot_opt_b,
    random_circuit,
    resynthesize,
    swap_template,
)
from cnotsynth.phasepoly import PhasePolySet, extract_hfree, extract_sliced, transform_of_circuit
from cnotsynth.phasesynth import phase_nw_synth
from cnotsynth.topology import (
    PRESET_NAMES,
    ConnectivityGraph,
    _searches,
    grid_graph,
    merge_path,
    preset_graph,
    shortest_path,
    steiner_tree,
)
from cnotsynth.verify import equivalent_up_to_phase
from tests.conftest import random_invertible, replay, rooted
from tests.test_linsynth import _cut_cnots, _reference_row_op
from tests.test_topology import _reference_steiner_tree


def _bfs_dist(g, u, v, active=None):
    """Hop distance from u to v through ``active`` (default: every vertex); None if unreachable."""
    active = set(g.vertices) if active is None else active
    frontier, dist, seen = {u}, 0, {u}
    while frontier and v not in frontier:
        frontier = {w for x in frontier for w in g.neighbors(x) if w in active and w not in seen}
        seen |= frontier
        dist += 1
    return dist if frontier else None


# -- SWAP template -----------------------------------------------------------------


def test_swap_adjacent_untouched():
    g = preset_graph("9q-square")
    c = Circuit(9, (cnot(1, 2), Gate(GateKind.H, 5)))
    assert swap_template(c, g).gates == c.gates


def test_swap_count_formula():
    # every distant ordered pair of every preset: the SWAP chain along the merge path
    for name in PRESET_NAMES:
        g = preset_graph(name)
        n = g.num_vertices
        for control in g.vertices:
            for target in g.vertices:
                if control == target or g.has_edge(control, target):
                    continue
                lone = Circuit(n, (cnot(control, target),))
                out = swap_template(lone, g)
                assert out.gates == tuple(_chain(merge_path(g, control, target))), (name, control, target)
                dist = _bfs_dist(g, control, target)
                assert cnot_count(out) == 6 * (dist - 1) + 1, (name, control, target)
                assert connectivity_violations(out, g) == []
                assert transform_of_circuit(out) == transform_of_circuit(lone), (name, control, target)
    g = preset_graph("9q-square")
    assert _bfs_dist(g, 1, 9) == 4  # oracle: 4 hops on the grid
    assert cnot_count(swap_template(Circuit(9, (cnot(1, 9),)), g)) == 19


def test_swap_equivalence_random():
    g = preset_graph("9q-square")
    rng = random.Random(15)
    for _ in range(10):
        c = random_circuit(9, 8, rng)
        out = swap_template(c, g)
        assert connectivity_violations(out, g) == []
        assert equivalent_up_to_phase(c, out)


# -- shared pipeline properties ------------------------------------------------------


@pytest.mark.parametrize("algo", ["opt-a", "opt-b"])
def test_trivial_identity_circuit(algo):
    g = preset_graph("appendix-2x3")
    out, report = resynthesize(Circuit(6, ()), g, algo)
    assert out.gates == ()
    assert report.output_cnots == 0


@pytest.mark.parametrize("algo", ["opt-a", "opt-b"])
def test_single_h_passthrough(algo):
    g = preset_graph("appendix-2x3")
    out, _ = resynthesize(Circuit(6, (Gate(GateKind.H, 1),)), g, algo)
    assert list(out.gates) == [Gate(GateKind.H, 1)]


def test_opt_b_t_before_h():
    # the x1 term dies at the H, so the T must land in the first slice
    g = preset_graph("appendix-2x3")
    c = Circuit(6, (Gate(GateKind.T, 1), Gate(GateKind.H, 1)))
    out, _ = cnot_opt_b(c, g)
    kinds = [gt.kind for gt in out.gates]
    assert kinds == [GateKind.T, GateKind.H]


@pytest.mark.parametrize("algo", ["opt-a", "opt-b"])
def test_h_positions_preserved(algo):
    g = preset_graph("9q-square")
    rng = random.Random(42)
    for _ in range(10):
        c = random_circuit(9, 10, rng)
        out, _ = resynthesize(c, g, algo)
        in_hs = [gt.target for gt in c.gates if gt.kind is GateKind.H]
        out_hs = [gt.target for gt in out.gates if gt.kind is GateKind.H]
        assert in_hs == out_hs


@pytest.mark.parametrize("algo", ["swap", "opt-a", "opt-b"])
def test_equivalence_and_validity(algo):
    g = preset_graph("9q-square")
    rng = random.Random(f"pipe-{algo}")
    for count in (3, 5, 10):
        c = random_circuit(9, count, rng)
        out, report = resynthesize(c, g, algo)
        assert connectivity_violations(out, g) == []
        assert equivalent_up_to_phase(c, out)
        assert report.input_cnots == count
        assert report.output_cnots == cnot_count(out)


def test_opt_a_equals_opt_b_on_hfree_identity_slices():
    # with no H gate the circuit is one run, whose own terms are its first terms
    rng = random.Random("hfree")
    for name in ("9q-square", "ibm-q20-tokyo"):
        g = preset_graph(name)
        for _ in range(50):
            gates = tuple(gt for gt in random_circuit(9, 10, rng).gates if gt.kind is not GateKind.H)
            c = Circuit(9, gates)
            assert cnot_opt_a(c, g)[0] == cnot_opt_b(c, g)[0], (name, write_circuit(c))


def test_opt_b_per_slice_linear_actions_match():
    # the stated invariant: the qubit states before every H agree with the input's
    g = preset_graph("9q-square")
    rng = random.Random(77)
    for _ in range(8):
        c = random_circuit(9, 12, rng)
        out, _ = cnot_opt_b(c, g)
        # each side's fold starts from the identity, so equal maps per run are
        # equal states before every H
        ends = [[(s.h, s.map) for s in extract_sliced(x, "first")] for x in (out, Circuit(9, c.gates))]
        assert ends[0] == ends[1]


# (sha256 of write_circuit(output), output CNOTs) for fixed seeds. A refactor
# must keep every digest; a change that means to alter the emitted circuits
# updates the digests, and any CNOT change it makes shows in the counts.
PINNED_OUTPUTS = {
    ("9q-square", 1, "opt-a"): ("1bcfd2e00737ed237bf799cc5a5f25835925d923a42beafa6a66bffa1386aded", 78),
    ("9q-square", 1, "opt-b"): ("0217ea05a4452f5c2e6f759be4f5d442f2c8a32eb1f008078a74bf820fc4b3ad", 78),
    ("9q-square", 2, "opt-a"): ("9b8fa6a5e0fc9aa90d9ad66f12892713a0e2abe973e419a8e1b58f4a8ccde50f", 93),
    ("9q-square", 2, "opt-b"): ("abda7529839f5dc38d0def553aafa97203f311ac12176efeb8dbe8ebf8ea74b5", 93),
    ("ibm-q20-tokyo", 1, "opt-a"): ("2bb6fb65dab768268f7e21115a5cbb16eddd5a248220b19a9f56b7b1bfd40112", 95),
    ("ibm-q20-tokyo", 1, "opt-b"): ("8e9ac7b3d8c2e0398649f29ec9390e458ba77078234b3920ca905188aec2b933", 95),
    ("ibm-q20-tokyo", 2, "opt-a"): ("84f6d07e1e3f5488010b8cb73fb0533873052e428d893b4afa8632778e6aa9be", 77),
    ("ibm-q20-tokyo", 2, "opt-b"): ("cba164ff5d46198b69121c81be72152b47d1344a2d9702c4aed7f8b2c28fa294", 77),
    ("grid-5x5", 0, "opt-a"): ("73c6b0685afa361972bdbe50b18c2a084348237787515a57a7ccdb1ad7bf5475", 364),
    ("grid-5x5", 0, "opt-b"): ("f9d7439170289899201d9efcea4e88b78621cfa3690f57d676e1f3bb44f66146", 364),
    ("16q-square", 1, "opt-a"): ("1dfaba29fa06adea3a7b0a4db1be3538ae1f749d5c7d81adc07d0dd62e42c369", 194),
    ("16q-square", 1, "opt-b"): ("0b9eb75cc4c6a2dbb9571becdbb9903f9684408fe1a2da3040ae69e3f70f3ba8", 194),
    ("rigetti-16q-aspen", 1, "opt-a"): ("3f3ba35d74e21673e31a7576f9a67bea314a714e207349419fe3cf9fb052dcf7", 260),
    ("rigetti-16q-aspen", 1, "opt-b"): ("70f3573d982fe138a1796c7c9e98ff8c5c076a57e2f095001b7482d48e13f2bf", 260),
    ("ibm-qx5", 1, "opt-a"): ("49364f5421bc7727e1a23d707332ce43242e99a9b3791c1132c7a035b1022b65", 232),
    ("ibm-qx5", 1, "opt-b"): ("3be480c6c8597d142868ed2b9b72ec378f2df02d9a64d5e3793f9b42ee82b0d6", 232),
}
# (qubits, CNOTs) of each graph's random circuit; 9-qubit circuits with 20 CNOTs elsewhere
PINNED_SIZES = {"grid-5x5": (25, 40), "16q-square": (16, 30), "rigetti-16q-aspen": (16, 30), "ibm-qx5": (16, 30)}


def test_emitted_circuits_pinned():
    for (graph, seed, algo), (digest, cnots) in PINNED_OUTPUTS.items():
        c = random_circuit(*PINNED_SIZES.get(graph, (9, 20)), random.Random(seed))
        g = grid_graph(5, 5) if graph == "grid-5x5" else preset_graph(graph)
        out, report = resynthesize(c, g, algo)
        assert cnot_count(out) == report.output_cnots == cnots, (graph, seed, algo)
        assert hashlib.sha256(write_circuit(out).encode()).hexdigest() == digest, (graph, seed, algo)


# -- one CNOT routed alone, and the choice of candidate per run ----------------------


def _one_qubit(kind):
    return lambda q: Gate(kind, q)


def _bridge_or_chain(g, control, target):
    """Reference routing of a distant CNOT: its ``linear_tf_synth`` bridge (the
    one-CNOT transform) or its SWAP chain, whichever is shorter, the bridge on a tie."""
    one = replay(AugmentedTransform.identity(g.num_vertices), cnot(control, target))
    bridge = linear_tf_synth(one, g).gates
    chain = tuple(_chain(shortest_path(g, control, target)))
    return chain if len(chain) < len(bridge) else bridge


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_route_is_row_op_on_the_merge_path(name):
    g = preset_graph(name)
    n = g.num_vertices
    shorter = 0
    for control in g.vertices:
        for target in g.vertices:
            if control == target:
                continue
            route = _route(g, control, target)[1]
            path = merge_path(g, control, target)
            assert route == tuple(cnot(u, v) for u, v in _path_passes(path, 2))
            # exactly CNOT(control, target), every CNOT on an edge
            routed = Circuit(n, route)
            assert connectivity_violations(routed, g) == []
            assert transform_of_circuit(routed) == transform_of_circuit(Circuit(n, (cnot(control, target),)))
            d = len(path) - 1
            assert len(route) == (1 if d == 1 else 4 * (d - 1)), (control, target)
            if d > 1:
                reference = _bridge_or_chain(g, control, target)
                assert len(route) <= len(reference), (control, target)
                shorter += len(route) < len(reference)
            assert _route(g, control, target)[1] is route  # memoized
    # one route per ordered pair, beside the one-term columns of the restores _bridge_or_chain ran
    assert sum((low, alg) == (1, 2) for low, _, _, alg in g.__dict__["_route"]) == n * (n - 1)
    assert shorter == {"rigetti-16q-aspen": 54, "ibm-q20-tokyo": 24}.get(name, 0)


def test_cnot_free_run_is_not_rebuilt(monkeypatch):
    calls = []

    def counting(pm, g, **budget):
        calls.append(pm)
        return phase_nw_synth(pm, g, **budget)

    monkeypatch.setattr(pipeline, "phase_nw_synth", counting)
    h, t = _one_qubit(GateKind.H), _one_qubit(GateKind.T)
    c = Circuit(9, (t(1), cnot(2, 9), h(1), t(2), Gate(GateKind.Y, 3), h(2), cnot(1, 2), cnot(5, 9), h(5), t(5)))
    for algo in ("opt-a", "opt-b"):
        g = preset_graph("9q-square")
        calls.clear()
        out, _ = resynthesize(c, g, algo)
        assert len(calls) == 1, algo  # only the third run holds two CNOTs
        assert equivalent_up_to_phase(c, out)
        # on the same graph again, with warm memos
        calls.clear()
        assert resynthesize(c, g, algo)[0] == out
        assert len(calls) == 1, algo
    calls.clear()
    assert cnot_opt_a(Circuit(9, (t(1), h(1), Gate(GateKind.S, 4))), g)[0].gates == (t(1), h(1), Gate(GateKind.S, 4))
    assert calls == []


@pytest.mark.parametrize("algo", ["opt-a", "opt-b"])
def test_run_is_rebuilt_when_the_rebuild_is_cheaper(algo):
    # the two routes cost 12 CNOTs each; the run's map is the identity
    g = preset_graph("9q-square")
    assert len(_route(g, 1, 9)[1]) == 12
    out, report = resynthesize(Circuit(9, (cnot(1, 9), cnot(1, 9), Gate(GateKind.H, 9))), g, algo)
    assert out.gates == (Gate(GateKind.H, 9),) and report.per_slice_cnots == (0, 0)


@pytest.mark.parametrize("algo", ["opt-a", "opt-b"])
def test_tie_emits_the_segmented_run(algo):
    g = preset_graph("appendix-2x3")
    gates = (cnot(4, 3), Gate(GateKind.T, 4), Gate(GateKind.T, 5))
    terms, state = extract_hfree(Circuit(6, gates))
    rebuilt, spent = _rebuild(terms, state, g)
    assert spent == cnot_count(rebuilt) == 1 and rebuilt != gates  # an equal-cost rebuild exists
    out, _ = resynthesize(Circuit(6, gates), g, algo)
    assert out.gates == gates


def _sparse_connected_graph(rng, n):
    """A random spanning tree on n shuffled vertices plus up to three random edges.

    ``random_connected_graph``'s edge probability 0.4 leaves few pairs at distance
    above 2; a tree keeps long paths, and the shuffle keeps labels off its shape.
    """
    order = rng.sample(range(1, n + 1), n)
    edges = [(v, order[rng.randrange(i)]) for i, v in enumerate(order) if i]
    edges += [rng.sample(range(1, n + 1), 2) for _ in range(rng.randint(0, 3))]
    return ConnectivityGraph.from_edges(n, edges)


def _relabelled(g, rng):
    perm = rng.sample(g.vertices, g.num_vertices)
    return ConnectivityGraph.from_edges(g.num_vertices, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def _one_cnot_graphs(family):
    if family in PRESET_NAMES:
        return [preset_graph(family)]
    rng = random.Random(family)
    if family == "sparse":
        return [_sparse_connected_graph(rng, n) for n in range(8, 21, 3)]
    return [_relabelled(grid_graph(rows, cols), rng) for rows, cols in ((3, 4), (4, 4))]


@pytest.mark.parametrize("family", [*PRESET_NAMES, "sparse", "relabelled-grids"])
def test_one_cnot_rebuild_never_beats_its_route(family):
    # the run's map is I + e_t e_c^T up to constants, so x_c + x_t, with either
    # constant, is its only two-variable parity; constants cost no CNOT
    x, t, s = _one_qubit(GateKind.X), _one_qubit(GateKind.T), _one_qubit(GateKind.S)
    z, y, tdg = _one_qubit(GateKind.Z), _one_qubit(GateKind.Y), _one_qubit(GateKind.TDG)
    for g in _one_cnot_graphs(family):
        n = g.num_vertices
        for control in g.vertices:
            for target in g.vertices:
                if control == target:
                    continue
                route = len(_route(g, control, target)[1])
                base = (x(control), cnot(control, target))
                spent = []
                # no term; the term 1 + x_c + x_t; and the terms 1 + x_c + x_t and x_c + x_t
                for run in (base, base + (t(target),), base + (t(target), x(target), s(target))):
                    terms, state = extract_hfree(Circuit(n, run))
                    spent.append(_rebuild(terms, state, g)[1])
                assert min(spent) >= route, (control, target)
                assert spent[1] == spent[2], (control, target)
                # a T on the control, the CNOT, then each tail on the target; the
                # budgeted rebuild is None exactly when it would cost the route or more
                head = (t(control), cnot(control, target))
                tails = [(), (t(target),), (s(target),), (z(target),), (y(target),)]
                tails += [(t(control), t(target)), (x(target), tdg(target))]
                for tail in tails:
                    terms, state = extract_hfree(Circuit(n, head + tail))
                    assert _rebuild(terms, state, g, route) is None, (control, target, tail)


def test_warm_graph_changes_no_output():
    rng = random.Random("warm")
    for name in PRESET_NAMES:
        warm = preset_graph(name)
        circuits = [random_circuit(min(9, warm.num_vertices), 12, rng) for _ in range(10)]
        for algo in ("opt-a", "opt-b"):
            for c in circuits:
                resynthesize(c, warm, algo)
        assert warm.__dict__["_route"] and warm.__dict__["_bfs"], name
        for algo in ("opt-a", "opt-b"):
            fresh = ConnectivityGraph.from_edges(warm.num_vertices, warm.edges)
            for c in circuits:
                out, report = resynthesize(c, warm, algo)
                cold, cold_report = resynthesize(c, fresh, algo)
                assert out == cold and report.per_slice_cnots == cold_report.per_slice_cnots, (name, algo)


def test_one_cnot_run_is_never_rebuilt(monkeypatch):
    budgets = []

    def stand_in(pm, target, g, budget):
        # always wins: one Z and no CNOT
        budgets.append(budget)
        return (Gate(GateKind.Z, 9),), 0

    monkeypatch.setattr(pipeline, "_rebuild", stand_in)
    g = preset_graph("9q-square")
    t, s, h, z = _one_qubit(GateKind.T), _one_qubit(GateKind.S), _one_qubit(GateKind.H), _one_qubit(GateKind.Z)
    # two runs with CNOT(1, 9) alone, then a run with two CNOTs
    c = Circuit(9, (cnot(1, 9), t(1), h(1), cnot(1, 9), s(1), h(1), cnot(1, 9), cnot(2, 8), t(2)))
    route = _route(g, 1, 9)[1]
    for algo in ("opt-a", "opt-b"):
        budgets.clear()
        out, report = resynthesize(c, g, algo)
        assert out.gates == route + (t(1), h(1)) + route + (s(1), h(1), z(9)), algo
        assert report.per_slice_cnots == (12, 12, 0), algo
        assert budgets == [len(route) + len(_route(g, 2, 8)[1])], algo


@pytest.mark.parametrize("algo", ["opt-a", "opt-b"])
def test_segmented_run_places_each_merged_term_once(algo):
    g = preset_graph("appendix-2x3")
    t, tdg, h = _one_qubit(GateKind.T), _one_qubit(GateKind.TDG), _one_qubit(GateKind.H)
    # two T on one parity in one run: one S at the first of them
    out, _ = resynthesize(Circuit(6, (t(1), Gate(GateKind.Z, 2), t(1))), g, algo)
    assert out.gates == (Gate(GateKind.S, 1), Gate(GateKind.Z, 2))
    # a Y whose merged term is a Z stays a Y (Z then X, up to a global phase)
    c = Circuit(6, (Gate(GateKind.Y, 1), t(1), Gate(GateKind.Z, 1), cnot(1, 2), t(2)))
    out, _ = resynthesize(c, g, algo)
    assert out.gates == (Gate(GateKind.Y, 1), Gate(GateKind.Z, 1), Gate(GateKind.T, 1), cnot(1, 2), t(2))
    assert equivalent_up_to_phase(c, out)
    # any other merged term keeps its phase gates at the Y, which flips its wire as an X after them
    c = Circuit(6, (Gate(GateKind.Y, 1), Gate(GateKind.X, 1), t(1)))
    out, _ = resynthesize(c, g, algo)
    assert out.gates == (Gate(GateKind.Z, 1), t(1), Gate(GateKind.X, 1), Gate(GateKind.X, 1))
    assert equivalent_up_to_phase(c, out)
    # x1 is a wire state in both slices: only opt-b merges its terms across the H, where they cancel
    out, _ = resynthesize(Circuit(6, (t(1), h(2), tdg(1))), g, algo)
    assert out.gates == {"opt-a": (t(1), h(2), tdg(1)), "opt-b": (h(2),)}[algo]


def test_rebuild_realizes_its_terms_and_target(monkeypatch):
    g = preset_graph("ibm-q20-tokyo")
    n = g.num_vertices
    rng = random.Random("rebuild")
    restores = []
    monkeypatch.setattr(
        pipeline, "linear_tf_synth", lambda a, g, **budget: restores.append(a) or linear_tf_synth(a, g, **budget)
    )
    for _ in range(10):
        c = Circuit(n, _long_slice_circuit(rng, n).gates[:99])  # H-free
        terms, state = extract_hfree(c)
        block, spent = _rebuild(terms, state, g)
        assert connectivity_violations(Circuit(n, block), g) == []
        assert extract_hfree(Circuit(n, block)) == (terms, state)
        assert spent == cnot_count(block)
        # a budget the block reaches abandons it; the restore is skipped when
        # the phase network alone reaches it
        assert _rebuild(terms, state, g, spent + 1) == (block, spent)
        assert _rebuild(terms, state, g, spent) is None
        restores.clear()
        network = cnot_count(phase_nw_synth(terms, g)[0])
        assert _rebuild(terms, state, g, network) is None
        assert restores == []
        # a budget inside the restore: the restore is entered, and stops there
        assert network < spent
        assert _rebuild(terms, state, g, network + 1) is None
        assert len(restores) == 1


def test_slice_terms_need_no_from_terms():
    # the slice loop hands each slice's terms to the phase network as they are, and
    # the network rejects a constant-only parity and one past x_n: no slice holds either
    terms_seen = 0
    circuits = [(graph, random_circuit(*PINNED_SIZES.get(graph, (9, 20)), random.Random(seed)))
                for graph, seed in dict.fromkeys((graph, seed) for graph, seed, _ in PINNED_OUTPUTS)]
    circuits += [("16q-square", _long_slice_circuit(random.Random(seed), 16)) for seed in range(2)]
    for graph, c in circuits:
        n = 25 if graph == "grid-5x5" else preset_graph(graph).num_vertices
        padded = Circuit(n, c.gates)
        for terms in [s.terms for partition in ("own", "first") for s in extract_sliced(padded, partition)]:
            assert all(parity & ~CONST_BIT and parity >> (n + 1) == 0 for _, parity in terms.columns), graph
            terms_seen += len(terms)
    assert terms_seen > 1000


def test_steiner_tree_gets_low_as_its_fourth_positional_argument(monkeypatch):
    # perfbench's tracer keys each Steiner tree by its args[3], the suffix low..n it
    # searches: every call, from an opt-a compile and from a restore, passes low there
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return steiner_tree(*args, **kwargs)

    monkeypatch.setattr(linsynth, "steiner_tree", spy)
    g = preset_graph("16q-square")
    n = g.num_vertices
    rng = random.Random("steiner-low")
    resynthesize(_long_slice_circuit(rng, n), g, "opt-a")
    compiled = len(calls)
    linear_tf_synth(random_invertible(rng, n), g)
    assert 0 < compiled < len(calls)
    assert all(len(args) == 4 and not kwargs and 1 <= args[3] <= n for args, kwargs in calls)
    assert len({args[3] for args, _ in calls[compiled:]}) > 1  # the restore's columns move low


def _long_slice_circuit(rng, n):
    """1,600 gates on n qubits, one H per 100; the other kinds drawn uniformly."""
    kinds = [k for k in GateKind if k is not GateKind.H]
    gates = []
    for k in range(1600):
        kind = GateKind.H if k % 100 == 99 else rng.choice(kinds)
        if kind is GateKind.CNOT:
            gates.append(cnot(*rng.sample(range(1, n + 1), 2)))
        else:
            gates.append(Gate(kind, rng.randint(1, n)))
    return Circuit(n, tuple(gates))


def test_pipeline_trees_match_the_references(monkeypatch):
    # the Steiner trees and row ops the pipelines really make on long slices:
    # many terminals, most with interior terminals, unlike random terminal sets
    trees, ops = [], []

    def tree_spy(g, terminals, root, low=1):
        tree = steiner_tree(g, terminals, root, low)
        trees.append((g, range(low, g.num_vertices + 1), tree))
        return tree

    def cut_spy(tree, alg):  # both synthesizers cut their trees of three or more terminals here
        ops.append((g.num_vertices, tree, alg))  # g: the graph being compiled for
        return _cut(tree, alg)

    monkeypatch.setattr(linsynth, "steiner_tree", tree_spy)
    monkeypatch.setattr(linsynth, "_cut", cut_spy)
    rng = random.Random("pipeline-trees")
    for name in ("16q-square", "ibm-q20-tokyo"):
        g = preset_graph(name)
        for _ in range(3):
            c = _long_slice_circuit(rng, 16)
            for algo in ("opt-a", "opt-b"):
                resynthesize(c, g, algo)

    def sample(items, tree_of, size):
        # of the trees with three or more terminals: the half of the sample
        # with the most terminals, and a seeded draw from the rest (all of them if fewer)
        items = [item for item in items if len(tree_of(item).terminals) > 2]
        items.sort(key=lambda item: -len(tree_of(item).terminals))
        rest = items[size // 2 :]
        return items[: size // 2] + rng.sample(rest, min(size - size // 2, len(rest)))

    seen = Counter()
    for g, active, tree in sample(trees, lambda item: item[2], 60):
        want = _reference_steiner_tree(g, tree.terminals, tree.root, active, Counter())
        parent, children = rooted(tree)
        assert (parent, children) == rooted(want)
        seen["max terminals"] = max(seen["max terminals"], len(tree.terminals))
        seen["interior terminal"] += any(children[t] for t in tree.terminals - {tree.root})
    # drawn per alg: most rebuilds stop at their budget before the restore's
    # second phase, so alg-2 row ops are few among the rest
    for alg in (1, 2, 4):
        for n, tree, _ in sample([op for op in ops if op[2] == alg], lambda item: item[1], 40):
            start = random_invertible(rng, n)
            got_matrix, want_matrix = start.copy(), start.copy()
            want_cnots, want_subs = _reference_row_op(want_matrix, tree, alg)
            if alg == 4:
                got_subs = _cut(tree, alg)
                got_cnots = _cut_cnots(got_subs)
            else:
                got_cnots, got_subs = row_op(got_matrix, tree, alg)
                assert got_matrix == want_matrix
            assert got_cnots == want_cnots and got_subs == want_subs
            seen[f"alg {alg}"] += 1
    assert seen["max terminals"] >= 8 and seen["interior terminal"] > 30, seen
    assert min(seen[f"alg {alg}"] for alg in (1, 2, 4)) > 5, seen


def _revalidated(c):
    """``c`` rebuilt through the checking constructor, which raises on a qubit out of range."""
    return Circuit(c.num_qubits, c.gates)


def test_trusted_outputs_pass_the_public_check():
    # synthesizer and pipeline outputs skip the per-gate range check; every one
    # of them must still pass it
    for name in PRESET_NAMES:
        g = preset_graph(name)
        n = g.num_vertices
        rng = random.Random(f"trusted-{name}")
        for _ in range(3):
            c = random_circuit(min(9, n), 15, rng)
            for algo in ("swap", "opt-a", "opt-b"):
                out, _ = resynthesize(c, g, algo)
                assert _revalidated(out) == out, (name, algo)
            terms = [(rng.randint(1, 7), rng.getrandbits(n + 1) | 2) for _ in range(rng.randint(0, 8))]
            phase, _ = phase_nw_synth(PhasePolySet(terms), g)
            assert _revalidated(phase) == phase, name
            linear = linear_tf_synth(random_invertible(rng, n), g)
            assert _revalidated(linear) == linear, name
    # the constructor and the parser keep checking
    with pytest.raises(ValueError, match="outside"):
        Circuit(3, (cnot(1, 4),))
    with pytest.raises(CircuitSyntaxError, match="outside"):
        parse_circuit("qubits 3\nCNOT 1 4\n")


def test_bfs_memo_bounded_and_unchanged_by_callers():
    # the three per-graph memos of ConnectivityGraph's docstring, their keys and bounds, each entry as built fresh
    g = preset_graph("ibm-q20-tokyo")
    n = g.num_vertices
    c = random_circuit(16, 60, random.Random(3))
    for algo in ("opt-a", "opt-b"):
        resynthesize(c, g, algo)

    def unmemoized():
        return ConnectivityGraph.from_edges(n, g.edges)

    assert set(g.__dict__) - set(unmemoized().__dict__) == {"_adj", "_bfs", "_route"}
    assert g == unmemoized() and hash(g) == hash(unmemoized())  # the memos are not part of the graph's value
    assert g.__dict__["_adj"] == {v: tuple(sorted(w for e in g.edges if v in e for w in e if w != v)) for v in g.vertices}
    # _bfs: the whole graph and the suffixes low..n of linear synthesis, each with one BFS per source
    memo = g.__dict__["_bfs"]
    assert 1 in memo and 1 < len(memo) <= n and set(memo) <= set(g.vertices)
    for low, (table, search) in memo.items():
        assert _searches(g, low) is search  # one BFS closure per low, built once
        assert 0 < len(table) <= n
        active = range(low, n + 1)
        for source, (dist, parent) in table.items():
            assert dist == {v: d for v in active if (d := _bfs_dist(g, source, v, active)) is not None}
            assert (dist, parent) == _searches(unmemoized(), low)(source)
    # _route: the pipelines' routes at low 1 and alg 2, one per ordered qubit pair, and the one-term
    # columns i < t of linear synthesis at low i and alg 1 and 2
    routes = g.__dict__["_route"]
    assert n < len(routes) <= 2 * n * (n - 1)
    kinds = Counter()
    for (low, u, v, alg), (record, cnots) in routes.items():
        assert (low, alg) == (1, 2) and u != v or low == u < v and alg in (1, 2), (low, u, v, alg)
        kinds["route" if (low, alg) == (1, 2) else "column"] += 1
        assert record == _path_record(merge_path(unmemoized(), u, v, low), alg)
        assert cnots == tuple(cnot(p, q) for p, q in record[2])
    assert min(kinds.values()) > n, kinds


def test_larger_qubit_gate_set_passthrough():
    # a circuit that uses every gate kind survives both pipelines
    g = preset_graph("appendix-2x3")
    gates = tuple(
        [Gate(k, 1 + i % 6) for i, k in enumerate(k for k in GateKind if k is not GateKind.CNOT)]
    ) + (cnot(1, 6), cnot(3, 5))
    c = Circuit(6, gates)
    for algo in ("opt-a", "opt-b"):
        out, _ = resynthesize(c, g, algo)
        assert connectivity_violations(out, g) == []
        assert equivalent_up_to_phase(c, out)


# -- reports ------------------------------------------------------------------------


def test_report_arithmetic():
    r = ResynthesisReport.build(10, 25, [1, 2], 0.5)
    assert r.overhead_pct == 150.0
    assert ResynthesisReport.build(0, 0, [], 0.0).overhead_pct == 0.0
    assert ResynthesisReport.build(0, 3, [], 0.0).overhead_pct is None
    d = r.as_dict()
    assert d["input_cnots"] == 10 and d["per_slice_cnots"] == [1, 2]


def test_report_overhead_matches_definition():
    g = preset_graph("9q-square")
    rng = random.Random(3)
    c = random_circuit(9, 10, rng)
    _, report = resynthesize(c, g, "swap")
    assert report.overhead_pct == (report.output_cnots - report.input_cnots) / report.input_cnots * 100


# -- random circuits and the bench grid ------------------------------------------------


def test_random_circuit_quota():
    rng = random.Random(8)
    for count in (1, 5, 20):
        c = random_circuit(9, count, rng)
        assert cnot_count(c) == count
        assert c.gates[-1].kind is GateKind.CNOT


def test_random_circuit_deterministic():
    a = random_circuit(9, 10, random.Random("s"))
    b = random_circuit(9, 10, random.Random("s"))
    assert a == b


def test_bench_grid_shape():
    graphs = {name: preset_graph(name) for name in ("9q-square", "appendix-2x3")}
    rows = bench_random(graphs, 6, [2, 3], trials=2, seed=5)
    assert len(rows) == 4
    tsv = bench_tsv(rows)
    lines = tsv.strip().split("\n")
    assert lines[0].split("\t") == list(BENCH_COLUMNS)
    assert len(lines) == 5
    for line in lines[1:]:
        assert len(line.split("\t")) == len(BENCH_COLUMNS)


def test_bench_tsv_bytes():
    # columns in BenchRow field order; overheads to 2 places, seconds to 3; one newline per line
    rows = [
        BenchRow("9q-square", 9, 10, 123.456, 33.3333, 0.0126, 0.0, 1.5),
        BenchRow("ibm-qx5", 6, 1, 300.0, -12.5, 2.0, 7.049, 0.0004),
    ]
    assert bench_tsv(rows) == (
        "architecture\tqubits\tinitial-cnots\tswap-overhead%\topt-a-overhead%\topt-a-time-s\topt-b-overhead%\topt-b-time-s\n"
        "9q-square\t9\t10\t123.46\t33.33\t0.013\t0.00\t1.500\n"
        "ibm-qx5\t6\t1\t300.00\t-12.50\t2.000\t7.05\t0.000\n"
    )
    assert bench_tsv([]) == "\t".join(BENCH_COLUMNS) + "\n"


def test_bench_deterministic_modulo_time():
    graphs = {"appendix-2x3": preset_graph("appendix-2x3")}

    def stripped(rows):
        return [(r.architecture, r.initial_count, r.swap_overhead, r.opta_overhead, r.optb_overhead) for r in rows]

    a = bench_random(graphs, 6, [3], trials=3, seed=9)
    b = bench_random(graphs, 6, [3], trials=3, seed=9)
    assert stripped(a) == stripped(b)


def test_bench_workers_clamped_to_cpu_count(monkeypatch):
    import concurrent.futures

    pools = []

    class InlinePool:  # records the requested size and runs the jobs in this process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    graphs = {"appendix-2x3": preset_graph("appendix-2x3")}
    rows = bench_random(graphs, 6, [2], trials=2, seed=1, workers=64)
    assert pools == [2] and len(rows) == 1
    with pytest.raises(ValueError):
        bench_random(graphs, 6, [2], trials=2, seed=1, workers=0)
