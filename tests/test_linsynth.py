import hashlib
import math
import random
import sys
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from cnotsynth import linsynth, pipeline
from cnotsynth.circuit import GateKind, cnot, cnot_count, connectivity_violations, write_circuit
from cnotsynth.linalg import CONST_BIT, AugmentedTransform, SingularTransformError, transform_of_circuit
from cnotsynth.linsynth import (
    _apply,
    _cut,
    _eliminate_column,
    _path_passes,
    _path_record,
    _route,
    linear_tf_synth,
    row_op,
)
from cnotsynth.topology import (
    PRESET_NAMES,
    ConnectivityGraph,
    DisconnectedTerminalsError,
    SteinerTree,
    grid_graph,
    merge_path,
    preset_graph,
    shortest_path,
    steiner_tree,
)
from tests.conftest import (
    APPENDIX_A_BITS,
    assert_budget_contract,
    bridge_graph,
    entry,
    is_invertible,
    path_tree,
    random_connected_graph,
    random_invertible,
    rooted,
    star_graph,
    traced,
    tree_depths,
    tree_leaves,
)
from tests.test_topology import _early_stop_merge_path, _steiner_pin_cases, bfs_distance


def _pairs(gates):
    return [(g.control, g.target) for g in gates]


# -- SEPARATE -----------------------------------------------------------------


def test_separate_single_edge(grid2x3):
    tree = steiner_tree(grid2x3, {4, 5}, 4)
    subs = _cut(tree, alg=1)
    assert len(subs) == 1
    assert subs[0][:2] == (4, (5,))


def test_separate_appendix_column1(grid2x3):
    # path 1-2-3-4-5 cuts into (1->2->3), (3->4), (4->5)
    tree = steiner_tree(grid2x3, {1, 3, 4, 5}, 1)
    subs = _cut(tree, alg=1)
    assert [(root, leaves) for root, leaves, _ in subs] == [(1, (3,)), (3, (4,)), (4, (5,))]
    assert {child for _, child in subs[0][2]} == {2, 3}  # Steiner node 2 inside the first sub-tree


def test_separate_flipped_paths(grid2x3):
    # phase-network mode: tree 4-5-6 becomes reversed paths (5->4), (6->5)
    tree = steiner_tree(grid2x3, {4, 5, 6}, 4)
    subs = _cut(tree, alg=4)
    assert [(root, leaves) for root, leaves, _ in subs] == [(5, (4,)), (6, (5,))]


def test_separate_edge_disjoint(grid2x3):
    tree = steiner_tree(grid2x3, {2, 3, 4, 6}, 2, 2)
    subs = _cut(tree, alg=1)
    seen = set()
    for _, _, passes in subs:
        edges = {(min(parent, child), max(parent, child)) for parent, child in passes}
        assert not edges & seen
        seen |= edges
    assert len(seen) == tree.edge_count


# -- ROW-OP ---------------------------------------------------------------------


def test_row_op_alg1_column1(grid2x3, appendix_transform):
    tree = steiner_tree(grid2x3, {1, 3, 4, 5}, 1)
    cnots, _ = row_op(appendix_transform, tree, alg=1)
    assert _pairs(cnots) == [(4, 5), (3, 4), (1, 2), (2, 3), (1, 2)]


def test_row_op_alg2_post_transpose(grid2x3):
    # first column after the transpose: tree 1-2-5-4, three single-edge sub-trees
    a = AugmentedTransform.from_bits(APPENDIX_A_BITS)  # content irrelevant to the gate list
    tree = steiner_tree(grid2x3, {1, 2, 4, 5}, 1)
    cnots, subtrees = row_op(a, tree, alg=2)
    assert _pairs(cnots) == [(5, 4), (2, 5), (1, 2)]
    assert [(root, leaves) for root, leaves, _ in subtrees] == [(1, (2,)), (2, (5,)), (5, (4,))]


def test_row_op_single_terminal(grid2x3, appendix_transform):
    tree = steiner_tree(grid2x3, {3}, 3)
    before = appendix_transform.copy()
    cnots, _ = row_op(appendix_transform, tree, alg=1)
    assert cnots == []
    assert appendix_transform == before


def test_row_op_replay_matches_matrix(grid2x3, appendix_transform):
    # the CNOT list and the row updates must stay in lockstep
    tree = steiner_tree(grid2x3, {1, 3, 4, 5}, 1)
    work = appendix_transform.copy()
    cnots, _ = row_op(work, tree, alg=1)
    replay = appendix_transform.copy()
    for g in cnots:
        replay.apply_gate(g)
    assert replay == work


def test_row_op_bad_alg(grid2x3, appendix_transform):
    tree = steiner_tree(grid2x3, {4, 5}, 4)
    for alg in (0, 3, 4, 5):  # the phase network's alg 4 takes _subtrees' records alone
        with pytest.raises(ValueError):
            row_op(appendix_transform, tree, alg=alg)


# -- reference: the sort-per-pass traversal, kept here as the specification ------


def _reference_separate(tree, alg):
    """FIFO BFS from each sub-tree root, cutting at terminals; alg 4 splits per leaf."""
    terminals = tree.terminals
    pending = [tree.root]
    remaining = set(terminals) - {tree.root}
    out, tree_children = [], rooted(tree)[1]
    while remaining:
        root = pending.pop(0)
        parent = {}
        children = {root: []}
        leaves = []
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in tree_children[u]:
                parent[w] = u
                children[u].append(w)
                children[w] = []
                if w in terminals:
                    leaves.append(w)
                    remaining.discard(w)
                    if tree_children[w]:
                        pending.append(w)
                else:
                    queue.append(w)
        if alg == 4:
            for leaf in leaves:
                path = [leaf]
                while path[-1] != root:
                    path.append(parent[path[-1]])
                out.append(path_tree(path))
        else:
            child_tuples = {v: tuple(cs) for v, cs in children.items()}
            adj = {v: list(cs) for v, cs in children.items()}
            for w, u in parent.items():
                adj[w].append(u)
            sub = SteinerTree(root, frozenset(leaves) | {root}, len(parent), adj)
            assert rooted(sub) == (parent, child_tuples)
            out.append(sub)
    return out


def _reference_tree_edges(sub):
    """(parent, child) pairs ordered by (child depth, child index)."""
    depth = tree_depths(sub)
    return sorted(((p, c) for c, p in rooted(sub)[0].items()), key=lambda pc: (depth[pc[1]], pc[1]))


def _reference_traversal_edges(sub, which):
    """Each pass sorts the sub-tree's edges afresh."""
    edges = _reference_tree_edges(sub)
    depth = tree_depths(sub)
    if which == "bottom-up-1":  # non-root parents, deepest child first
        return sorted(
            (e for e in edges if e[0] != sub.root),
            key=lambda pc: (-depth[pc[1]], pc[1]),
        )
    if which == "top-down-1":  # every edge, top first
        return edges
    leaves = set(tree_leaves(sub))
    if which == "bottom-up-2":  # non-leaf children, deepest first
        return sorted(
            (e for e in edges if e[1] not in leaves),
            key=lambda pc: (-depth[pc[1]], pc[1]),
        )
    if which == "top-down-2":  # non-root parents and non-leaf children, top first
        return [e for e in edges if e[0] != sub.root and e[1] not in leaves]
    raise ValueError(which)


def _reference_row_op(matrix, tree, alg):
    """The CNOTs and a (root, leaves, pass edges) record per sub-tree, in cut order.

    ``matrix`` takes every CNOT as a row operation.
    """
    passes = ["top-down-1", "bottom-up-2"]
    if alg != 1:
        passes = ["bottom-up-1"] + passes + ["top-down-2"]
    records = [
        (sub.root, tree_leaves(sub), [e for which in passes for e in _reference_traversal_edges(sub, which)])
        for sub in _reference_separate(tree, alg)
    ]
    cnots = []
    for _, _, edges in reversed(records):
        for u, v in edges:
            cnots.append(cnot(u, v))
            matrix.row_xor(v, u)
    return cnots, records


def _cut_cnots(records):
    """The CNOTs of ``_cut`` records, from the last record to the first, as ROW-OP emits them."""
    return [cnot(u, v) for _, _, edges in reversed(records) for u, v in edges]


def _row_op_cases(rng):
    """(graph, tree): Steiner trees from every preset and from random connected
    graphs, over the whole graph and suffixes low..n, and path_tree shortest paths."""
    graphs = [preset_graph(name) for name in PRESET_NAMES]
    graphs += [random_connected_graph(rng, rng.randint(3, 14)) for _ in range(30)]
    graphs.append(grid_graph(5, 5))
    for g in graphs:
        n = g.num_vertices
        for trial in range(30):
            low = 1 if trial % 2 else rng.randint(1, n - 1)
            k = min(n + 1 - low, rng.choice([1, 2, 3, 4, 5, rng.randint(2, n)]))
            terminals = frozenset(rng.sample(range(low, n + 1), k))
            pivot = rng.choice(sorted(terminals))
            try:
                tree = steiner_tree(g, terminals, pivot, low)
            except DisconnectedTerminalsError:
                continue
            yield g, tree
        for _ in range(10):
            u, v = rng.sample(list(g.vertices), 2)
            yield g, path_tree(shortest_path(g, u, v))


def test_row_op_matches_sort_per_pass_reference():
    rng = random.Random(8080)
    seen = Counter()
    for g, tree in _row_op_cases(rng):
        start = random_invertible(rng, g.num_vertices)
        for alg in (1, 2):
            got_matrix, want_matrix = start.copy(), start.copy()
            got_cnots, got_subs = row_op(got_matrix, tree, alg)
            want_cnots, want_subs = _reference_row_op(want_matrix, tree, alg)
            case = (sorted(g.edges), sorted(tree.terminals), tree.root, alg)
            assert _pairs(got_cnots) == _pairs(want_cnots), case
            assert got_subs == want_subs, case
            assert got_matrix == want_matrix, case
        # the phase network's path-per-leaf mode: the cut and its CNOTs
        got_subs = _cut(tree, 4)
        want_cnots, want_subs = _reference_row_op(start.copy(), tree, 4)
        case = (sorted(g.edges), sorted(tree.terminals), tree.root, 4)
        assert _pairs(_cut_cnots(got_subs)) == _pairs(want_cnots), case
        assert got_subs == want_subs, case
        seen["terminals-%d" % min(len(tree.terminals), 3)] += 1
        children = rooted(tree)[1]
        seen["interior terminal"] += any(children[t] for t in tree.terminals - {tree.root})
        seen["branching"] += any(len(cs) > 1 for cs in children.values())
    # single terminals, paths (two terminals), trees that cut into several sub-trees
    assert min(seen.values()) > 100, seen


def test_each_leaf_path_nets_one_row_xor():
    # the phase network applies a path-per-leaf record (leaf, (top,), edges) as
    # one update: the edges' CNOTs restore every interior row, so row top gains
    # row leaf; a column over the rows keeps its parity when, where it has bit
    # top, bit leaf flips
    rng = random.Random(4343)
    seen = Counter()
    for g, tree in _row_op_cases(rng):
        n = g.num_vertices
        for leaf, (top,), edges in _cut(tree, 4):
            start = random_invertible(rng, n)
            replay, want = start.copy(), start.copy()
            for u, v in edges:
                replay.apply_gate(cnot(u, v))
            want.row_xor(top, leaf)
            assert replay == want, (sorted(g.edges), leaf, top)
            mask = rng.getrandbits(n) << 1
            moved = mask ^ 1 << leaf if mask >> top & 1 else mask
            assert _parity_over(start, mask) == _parity_over(replay, moved)
            seen["interior" if len(edges) > 1 else "one edge"] += 1
    assert min(seen.values()) > 500, seen


def _parity_over(a, mask):
    """The XOR of the rows of ``a`` whose bits ``mask`` holds (bit i is row i)."""
    out = 0
    for i in range(1, a.n + 1):
        if mask >> i & 1:
            out ^= a.rows[i - 1]
    return out


def test_cut_of_a_two_terminal_tree_is_its_path():
    # a tree that is exactly the path between its two terminals is its own
    # single sub-tree, whose record is the path's passes, except in
    # path-per-leaf mode, where the leaf end roots it
    g = grid_graph(3, 3)
    path = shortest_path(g, 1, 9)
    tree = path_tree(path)
    for alg in (1, 2):
        assert _cut(tree, alg) == [(1, (9,), _path_passes(path, alg))]
    assert _cut(tree, 4) == [(9, (1,), _path_passes(path[::-1], 4))]
    assert _cut(path_tree([5]), 1) == []


def test_path_row_op_is_row_op_on_the_path_tree():
    # a path's record, applied by the loop every row op shares, is row_op on the path's tree
    rng = random.Random(3131)
    checked = 0
    for g, tree in _row_op_cases(rng):
        if len(tree.terminals) != 2:
            continue
        (end,) = tree.terminals - {tree.root}
        path = shortest_path(g, tree.root, end)
        start = random_invertible(rng, g.num_vertices)
        got_matrix, want_matrix = start.copy(), start.copy()
        got_sub = _path_record(path, 2)
        got_cnots = _apply(got_matrix, [got_sub], [])
        want_cnots, want_subs = row_op(want_matrix, path_tree(path), alg=2)
        assert _pairs(got_cnots) == _pairs(want_cnots)
        assert [got_sub] == want_subs
        assert got_matrix == want_matrix
        checked += 1
    assert checked > 200


def test_two_terminal_subtrees_are_the_cut_of_the_merge_path():
    # ROW-OP joins two terminals by their merge path and builds no tree; that
    # is the cut of the Steiner tree the general merge loop builds for them
    # (every suffix subgraph of a preset is connected)
    seen = Counter()
    for name in PRESET_NAMES:
        g = preset_graph(name)
        n = g.num_vertices
        for u in g.vertices:
            for v in g.vertices:
                if u == v:
                    continue
                for low in (1, min(u, v)):
                    case = (name, u, v, low)
                    tree = steiner_tree(g, {u, v}, u, low)
                    want = path_tree(merge_path(g, u, v, low))
                    assert (tree.root, tree.terminals, *rooted(tree)) == (
                        want.root,
                        want.terminals,
                        *rooted(want),
                    ), case
                    path = merge_path(g, u, v, low)
                    for alg in (1, 2):  # a one-term column's record in LINEAR-TF-SYNTH, and _route's
                        assert _cut(tree, alg) == [_path_record(path, alg)], case
                    # alg 4 reverses the path: the phase network's two-terminal record, which it takes from _route
                    assert _cut(tree, 4) == [_path_record(path[::-1], 4)], case
                    seen["suffix" if low > 1 else "full"] += 1
    assert min(seen.values()) > 50, seen


# sha256 over (case, alg, records) of the alg 1, 2 and 4 cuts of every _steiner_pin_cases tree
PINNED_CUT = "7493bca1d54e384186ee41640d7e17f40d8a8c97f50c2c78b2c3a60b600d6b57"


def test_cut_pinned():
    # pins the sub-tree order, the leaves and every pass edge of the cut, beyond the trees the pipelines reach
    digest = hashlib.sha256()
    cases = 0
    for name, g, terminals, root, low in _steiner_pin_cases():
        tree = steiner_tree(g, terminals, root, low)
        for alg in (1, 2, 4):
            digest.update(repr((name, sorted(terminals), root, low, alg, _cut(tree, alg))).encode())
        cases += 1
    assert cases > 2000
    assert digest.hexdigest() == PINNED_CUT


# -- LINEAR-TF-SYNTH -------------------------------------------------------------


def test_identity_gives_empty_circuit(grid2x3):
    out = linear_tf_synth(AugmentedTransform.identity(6), grid2x3)
    assert out.gates == ()


def test_appendix_full_golden(grid2x3, appendix_transform):
    circ, traces = traced(linear_tf_synth, appendix_transform, grid2x3)
    assert cnot_count(circ) == 26
    assert transform_of_circuit(circ) == appendix_transform
    assert connectivity_violations(circ, grid2x3) == []

    by_key = {(t.phase, t.column): t for t in traces}
    # upper-triangularization CNOT lists, including the two diagonal fixes
    assert _pairs(by_key[1, 1].tree) == [(4, 5), (3, 4), (1, 2), (2, 3), (1, 2)]
    assert _pairs(by_key[1, 2].diag) == [(3, 2)]
    assert _pairs(by_key[1, 2].tree) == [(3, 4), (2, 3), (2, 5), (5, 6), (2, 5)]
    assert _pairs(by_key[1, 3].tree) == [(4, 5), (3, 4)]
    assert _pairs(by_key[1, 4].diag) == [(5, 4)]
    assert _pairs(by_key[1, 4].tree) == [(4, 5)]
    # reduction to identity, including the single correction
    assert _pairs(by_key[2, 1].tree) == [(5, 4), (2, 5), (1, 2)]
    assert _pairs(by_key[2, 1].corrections) == [(5, 4)]
    assert _pairs(by_key[2, 2].tree) == [(2, 3), (2, 5)]
    assert _pairs(by_key[2, 3].tree) == [(5, 6), (4, 5), (5, 6), (4, 5), (3, 4)]


def test_appendix_intermediate_matrices(grid2x3, appendix_transform):
    _, traces = traced(linear_tf_synth, appendix_transform, grid2x3)
    by_key = {(t.phase, t.column): t for t in traces}
    after_col1 = AugmentedTransform.from_bits(
        [
            [1, 1, 0, 1, 1, 0, 0],
            [0, 0, 1, 1, 0, 1, 0],
            [0, 1, 0, 0, 0, 1, 0],
            [0, 1, 1, 1, 1, 0, 0],
            [0, 0, 1, 0, 0, 0, 0],
            [0, 1, 0, 1, 0, 1, 0],
        ]
    )
    assert by_key[1, 1].matrix == after_col1
    after_col3 = AugmentedTransform.from_bits(
        [
            [1, 1, 0, 1, 1, 0, 0],
            [0, 1, 1, 1, 0, 0, 0],
            [0, 0, 1, 1, 0, 1, 0],
            [0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 1, 1, 1, 0],
            [0, 0, 0, 0, 0, 1, 0],
        ]
    )
    assert by_key[1, 3].matrix == after_col3
    # phase-2 milestone: the matrix ends as the identity
    assert by_key[2, 6].matrix.is_identity()


def test_upper_triangular_milestone(grid2x3, appendix_transform):
    _, traces = traced(linear_tf_synth, appendix_transform, grid2x3)
    final_phase1 = [t for t in traces if t.phase == 1][-1].matrix
    n = final_phase1.n
    for i in range(1, n + 1):
        assert entry(final_phase1, i, i) == 1
        for j in range(1, i):
            assert entry(final_phase1, i, j) == 0


def test_phase2_unit_row_milestone(grid2x3, appendix_transform):
    # after processing column i, every row j <= i equals the unit vector e_j
    _, traces = traced(linear_tf_synth, appendix_transform, grid2x3)
    for t in traces:
        if t.phase != 2:
            continue
        for j in range(1, t.column + 1):
            assert t.matrix.rows[j - 1] == 1 << j, (t.column, j)


def test_random_replay_oracle(grid2x3):
    rng = random.Random(1205)
    for _ in range(200):
        a = random_invertible(rng, 6)
        circ = linear_tf_synth(a, grid2x3)
        assert transform_of_circuit(circ) == a
        assert connectivity_violations(circ, grid2x3) == []
    # the trace sink on larger graphs: it leaves the circuit unchanged, reports
    # every column in order, and its CNOT lists reassemble the circuit
    for g in (preset_graph("9q-square"), preset_graph("ibm-q20-tokyo"), grid_graph(5, 5)):
        n = g.num_vertices
        for _ in range(4):
            a = random_invertible(rng, n)
            circ, events = traced(linear_tf_synth, a, g)
            assert circ == linear_tf_synth(a, g)
            assert transform_of_circuit(circ) == a
            assert [(e.kind, e.phase, e.column) for e in events] == [
                ("column", phase, i) for phase in (1, 2) for i in range(1, n + 1)
            ]
            y = {1: [], 2: []}
            for e in events:
                y[e.phase] += e.diag + e.tree + e.corrections
            flipped = [cnot(gt.target, gt.control) for gt in y[2]]
            x_gates = [gt for gt in circ.gates if gt.kind is GateKind.X]
            assert list(circ.gates) == flipped + y[1][::-1] + x_gates
            assert events[-1].matrix.is_identity()


def test_singular_rejected(grid2x3):
    bits = [[0] * 7 for _ in range(6)]
    for i in range(6):
        bits[i][0] = 1  # every row equals x1: rank 1
    with pytest.raises(SingularTransformError):
        linear_tf_synth(AugmentedTransform.from_bits(bits), grid2x3)


def test_transform_smaller_than_graph(grid2x3):
    # a 3-qubit transform routed on the 6-vertex graph: padded wires stay identity
    rng = random.Random(5)
    a = random_invertible(rng, 3)
    circ = linear_tf_synth(a, grid2x3)
    assert circ.num_qubits == 6
    action = transform_of_circuit(circ)
    assert action.rows[:3] == a.rows
    assert action.rows[3:] == [1 << i for i in (4, 5, 6)]


def test_disconnected_removal_fallback():
    # functional correctness must survive the full-graph routing fallback: removing
    # the hub (vertex 1) of a star disconnects everything
    g = star_graph(4)
    rng = random.Random(17)
    for _ in range(60):
        a = random_invertible(rng, 4)
        circ = linear_tf_synth(a, g)
        assert transform_of_circuit(circ) == a
        assert connectivity_violations(circ, g) == []


def test_corrections_walk_inside_the_shrunken_graph(monkeypatch):
    # every leaf _corrections chases belongs to the column's cut, which is
    # connected inside i..n; a term bridged through fixed vertices is rooted
    # at the column, below all its leaves, so no correction starts from it
    column = {"low": None, "bridged": False}
    walks = []
    bridged_and_corrected = 0

    def path_spy(g, u, v, low=1):
        path = shortest_path(g, u, v, low)
        caller = sys._getframe(1).f_code.co_name
        if caller == "_corrections":
            walks.append(low == column["low"] and min(path) >= low)
        elif caller == "_eliminate_column":
            column["bridged"] = True
        return path

    def eliminate_spy(a, g, i, terms, alg, out):
        column.update(low=i, bridged=False)
        return eliminate_column(a, g, i, terms, alg, out)

    def corrections_spy(a, g, i, subtrees, out):
        nonlocal bridged_and_corrected
        before = len(out)  # the corrections append their CNOTs to the phase's list
        corrections(a, g, i, subtrees, out)
        bridged_and_corrected += len(out) > before and column["bridged"]

    eliminate_column, corrections = linsynth._eliminate_column, linsynth._corrections
    monkeypatch.setattr(linsynth, "shortest_path", path_spy)
    monkeypatch.setattr(linsynth, "_eliminate_column", eliminate_spy)
    monkeypatch.setattr(linsynth, "_corrections", corrections_spy)

    def synth(a, g):
        circ = linear_tf_synth(a, g)
        assert transform_of_circuit(circ) == a.padded(g.num_vertices)
        assert connectivity_violations(circ, g) == []

    # CNOT 2 3, CNOT 2 5, CNOT 5 2: phase 2 bridges a term and corrects in one column
    a = AugmentedTransform.identity(5)
    for dst, src in ((3, 2), (5, 2), (2, 5)):
        a.row_xor(dst, src)
    synth(a, bridge_graph())
    assert bridged_and_corrected == 1
    rng = random.Random("corrections-local")
    graphs = [random_connected_graph(rng, rng.randint(4, 12)) for _ in range(60)]
    graphs += [star_graph(n) for n in range(3, 10)]
    graphs += [preset_graph(name) for name in PRESET_NAMES]
    for g in graphs:
        for _ in range(4):
            synth(random_invertible(rng, g.num_vertices), g)
    assert walks and all(walks)
    assert bridged_and_corrected > 1


def test_x_gates_realize_flip_column(grid2x3):
    bits = [
        [1, 0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0],
    ]
    a = AugmentedTransform.from_bits(bits)
    circ = linear_tf_synth(a, grid2x3)
    assert cnot_count(circ) == 0
    assert sum(1 for g in circ.gates if g.kind is GateKind.X) == 2
    assert transform_of_circuit(circ) == a


# -- cost follows the non-identity rows: pinned outputs and singular input ---------


def _pin_graphs():
    return {
        "appendix-2x3": preset_graph("appendix-2x3"),
        "star-4": star_graph(4),
        "9q-square": preset_graph("9q-square"),
        "rigetti-16q-aspen": preset_graph("rigetti-16q-aspen"),
        "ibm-q20-tokyo": preset_graph("ibm-q20-tokyo"),
        "grid-5x5": grid_graph(5, 5),
    }


def _near_identity(rng, n, k):
    """An invertible transform whose rows differ from the identity in at most k rows."""
    a = AugmentedTransform.identity(n)
    rows = rng.sample(range(1, n + 1), k)
    for _ in range(3 * k):
        dst = rng.choice(rows)
        a.row_xor(dst, rng.choice([j for j in range(1, n + 1) if j != dst]))
    for r in rows:
        if rng.random() < 0.3:
            a.rows[r - 1] ^= CONST_BIT
    return a


def _pin_inputs(rng, n):
    """The identity, two transforms for each count 1-5 of non-identity rows, and six dense ones."""
    inputs = [AugmentedTransform.identity(n)]
    inputs += [_near_identity(rng, n, k) for k in range(1, min(5, n) + 1) for _ in range(2)]
    inputs += [random_invertible(rng, n) for _ in range(6)]
    return inputs


# sha256 over every output circuit and every traced column (phase, column, diag,
# tree and correction CNOTs, matrix rows) of _pin_inputs(random.Random(name), n)
PINNED_LINEAR = {
    "appendix-2x3": "17e884c2a9f26946baa76def70f343d7a6ad71769f2ad81afd638c2b86e508ec",
    "star-4": "77ecac5fba222c199641ce783738a28f3837b225a561d83971f06202e9df4240",
    "9q-square": "effde5417b08e53efd166d33e9fe1f62200f0d47ee4c310551ad3d8c359e9e4a",
    "rigetti-16q-aspen": "fdc4aaad941d998ef1b3aa300df333ef68b016d3af15e115fca9ed375357e308",
    "ibm-q20-tokyo": "06d52740ff6d3dcc2cb502a85cf9b41e098b216d1f27a4889fe54d3bf3c5fe8e",
    "grid-5x5": "b3a8131dccd26b231bf9b8e8df64eff2135d73e8738895861180a5e6d8d792b8",
}


def test_linear_synthesis_pinned(monkeypatch):
    # path records are built for two-terminal row ops (by the _route memo),
    # for the cut's leaf paths, and for the full-graph routing fallbacks and
    # _corrections; count which callers built them
    fallbacks = Counter()

    def spy(*args, **kwargs):
        fallbacks[sys._getframe(1).f_code.co_name] += 1
        return path_record(*args, **kwargs)

    path_record = linsynth._path_record
    monkeypatch.setattr(linsynth, "_path_record", spy)
    for name, g in _pin_graphs().items():
        digest = hashlib.sha256()
        for a in _pin_inputs(random.Random(name), g.num_vertices):
            circ, events = traced(linear_tf_synth, a, g)
            digest.update(write_circuit(circ).encode())
            for e in events:
                fields = (e.phase, e.column, _pairs(e.diag), _pairs(e.tree), _pairs(e.corrections), e.matrix.rows)
                digest.update(repr(fields).encode())
        assert digest.hexdigest() == PINNED_LINEAR[name], name
    assert fallbacks["_route"] > 0  # a one-term column's record, built once per graph
    assert fallbacks["_eliminate_column"] > 0  # a term unreachable inside the shrunken graph
    assert fallbacks["_fix_diagonal"] > 0  # a pivot candidate unreachable likewise
    assert fallbacks["_corrections"] > 0  # a phase-2 leaf below its sub-tree's root


def test_warm_memos_change_no_restore(monkeypatch):
    # a graph whose memos other inputs warmed gives the same restores, gates and trace events as a fresh one
    restores = []  # the trace events of each restore the pipelines call, then its gates
    restore = linsynth.linear_tf_synth

    def spy(a, g, budget=math.inf):
        restores.append([])
        circ = traced(partial(restore, budget=budget), a, g, events=restores[-1])[0]
        restores[-1].append(circ.gates)
        return circ

    monkeypatch.setattr(pipeline, "linear_tf_synth", spy)
    rng = random.Random("warm-memos")
    for name, warm in _pin_graphs().items():
        n = warm.num_vertices
        for a in _pin_inputs(random.Random(f"warm-{name}"), n):
            linear_tf_synth(a, warm)
        for c in [pipeline.random_circuit(min(9, n), 12, rng) for _ in range(4)]:
            for algo in ("opt-a", "opt-b"):
                pipeline.resynthesize(c, warm, algo)
        assert warm.__dict__["_route"], name
        for a in _pin_inputs(random.Random(name), n):
            fresh = ConnectivityGraph.from_edges(n, warm.edges)
            assert traced(linear_tf_synth, a, warm) == traced(linear_tf_synth, a, fresh), name
        for k in range(4):
            c = pipeline.random_circuit(min(9, n), 12, random.Random(f"{name}-{k}"))
            for algo in ("opt-a", "opt-b"):
                runs = []
                for g in (warm, ConnectivityGraph.from_edges(n, warm.edges)):
                    restores.clear()
                    runs.append((pipeline.resynthesize(c, g, algo)[0], list(restores)))
                assert runs[0] == runs[1], (name, k, algo)
    # the memo keys each record by its low: on a warm graph whose suffixes fall apart, every column's
    # (record, CNOTs) at every low equals the build from the memo-free oracle path, and so does the column
    g = bridge_graph()
    n = g.num_vertices
    for a in _pin_inputs(random.Random("warm-bridge"), n):
        linear_tf_synth(a, g)
    for c in [pipeline.random_circuit(n, 12, random.Random(f"warm-bridge-{k}")) for k in range(4)]:
        pipeline.resynthesize(c, g, "opt-a")
    rng, seen = random.Random("every-low"), Counter()
    for low in g.vertices:
        for i in range(low, n + 1):
            for t in range(i + 1, n + 1):
                for alg in (1, 2):
                    warm_before = (low, i, t, alg) in g.__dict__["_route"]
                    active = range(low, n + 1)
                    if bfs_distance(g, i, t, active) is None:
                        with pytest.raises(DisconnectedTerminalsError):
                            _route(g, i, t, low, alg)
                        seen["unreachable"] += 1
                        continue
                    want = _path_record(_early_stop_merge_path(g, i, t, active), alg)
                    assert _route(g, i, t, low, alg) == (want, tuple(cnot(u, v) for u, v in want[2]))
                    seen["warm" if warm_before else "cold"] += 1
                    if low == i:  # column i with the one term t
                        got_a = random_invertible(rng, n)
                        want_a = got_a.copy()
                        out = []
                        assert _eliminate_column(got_a, g, i, {t}, alg, out) == [want]
                        assert out == _apply(want_a, [want], []) and got_a == want_a
                        seen["column"] += 1
    assert min(seen[k] for k in ("warm", "cold", "unreachable", "column")) > 0, seen


def test_traced_and_untraced_linear_synthesis_agree(monkeypatch):
    # the untraced call jumps over columns with nothing to clear; the traced
    # one still reports every column, and both emit the same gates
    visited = Counter()

    def spy(a, i, touched):
        # called at every visited column, with the bitset of the rows that differ from the identity (bit j is row j)
        assert isinstance(touched, int) and touched >> i
        visited[i] += 1
        return ones_below(a, i, touched)

    ones_below = linsynth._ones_below
    monkeypatch.setattr(linsynth, "_ones_below", spy)
    graphs = {name: preset_graph(name) for name in PRESET_NAMES} | {"grid-5x5": grid_graph(5, 5)}
    # sparse random graphs send columns through the full-graph routing fallbacks,
    # whose CNOTs reach rows outside the active set
    rng = random.Random("skip-random-graphs")
    graphs |= {f"random-{k}": random_connected_graph(rng, rng.randint(4, 12)) for k in range(12)}
    for name, g in graphs.items():
        n = g.num_vertices
        rng = random.Random(f"skip-{name}")
        inputs = [AugmentedTransform.identity(n)]
        inputs += [_near_identity(rng, n, k) for k in (1, 2, 3) for _ in range(3)]
        inputs += [random_invertible(rng, n) for _ in range(3)]
        for a in inputs:
            visited.clear()
            circ = linear_tf_synth(a, g)
            worked = sum(visited.values())
            traced_circ, events = traced(linear_tf_synth, a, g)
            assert list(circ.gates) == list(traced_circ.gates), name
            assert transform_of_circuit(circ) == a
            assert [(e.kind, e.phase, e.column) for e in events] == [
                ("column", phase, i) for phase in (1, 2) for i in range(1, n + 1)
            ], name
            if a.is_identity():
                assert worked == 0 and circ.gates == ()  # no per-column work in either phase
            for before, e in zip(events, events[1:]):
                if e.phase == before.phase and not (e.diag or e.tree or e.corrections):
                    assert e.matrix == before.matrix  # a column without CNOTs leaves the matrix as it was


def _singular(rng, n):
    """A singular transform: dense and random, or the identity with one row made dependent."""
    if rng.random() < 0.5:
        while True:
            a = AugmentedTransform.from_bits([[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(n)])
            if not is_invertible(a):
                return a
    a = AugmentedTransform.identity(n)
    r = rng.randint(1, n)
    dependent = 0
    for j in rng.sample(range(1, n + 1), rng.randint(0, min(3, n - 1))):
        if j != r:
            dependent ^= a.rows[j - 1]
    a.rows[r - 1] = dependent | rng.getrandbits(1)
    for _ in range(rng.randint(0, 2 * n)):
        dst, src = rng.sample(range(1, n + 1), 2)
        a.row_xor(dst, src)
    return a


def test_singular_input_rejected_by_elimination():
    # row operations preserve rank, so the elimination itself reaches a column
    # without a pivot: every singular input raises SingularTransformError,
    # never another exception and never a circuit
    rejected = 0
    for name, g in _pin_graphs().items():
        rng = random.Random(f"singular-{name}")
        for _ in range(200):
            a = _singular(rng, g.num_vertices)
            assert not is_invertible(a)
            with pytest.raises(SingularTransformError):
                linear_tf_synth(a, g)
            rejected += 1
    assert rejected >= 1000


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["appendix-2x3", "9q-square", "ibm-qx5"]), st.integers(min_value=0))
def test_budget_is_reached_exactly_when_the_unbudgeted_restore_reaches_it(name, seed):
    g = preset_graph(name)
    rng = random.Random(seed)  # a seed, not st.randoms: drawing invertible transforms rejects many
    a = random_invertible(rng, rng.randint(1, g.num_vertices))
    assert_budget_contract(linear_tf_synth, (a, g), cnot_count)
