import hashlib
import itertools
import random
from collections import Counter, deque

import networkx as nx
import pytest

from cnotsynth.topology import (
    ConnectivityGraph,
    DisconnectedTerminalsError,
    NoPathError,
    PRESET_NAMES,
    UnknownPresetError,
    distances,
    grid_graph,
    merge_path,
    parse_graph,
    preset_graph,
    SteinerTree,
    shortest_path,
    steiner_tree,
    write_graph,
)
from tests.conftest import (
    bridge_graph,
    is_connected,
    path_tree,
    random_connected_graph,
    rooted,
    star_graph,
    tree_leaves,
    tree_nodes,
)


# -- independent oracles ----------------------------------------------------


def bfs_distance(g: ConnectivityGraph, u: int, v: int, active=None) -> int | None:
    active = set(g.vertices) if active is None else set(active)
    frontier, dist, seen = [u], 0, {u}
    while frontier:
        if v in frontier:
            return dist
        frontier = [
            w
            for x in frontier
            for w in g.neighbors(x)
            if w in active and w not in seen and not seen.add(w)
        ]
        dist += 1
    return None


def optimal_steiner(g: ConnectivityGraph, terminals: set[int]) -> int:
    """Exact minimum Steiner tree weight by enumerating connected vertex supersets."""
    others = sorted(set(g.vertices) - terminals)
    best = None
    for r in range(len(others) + 1):
        if best is not None and len(terminals) + r - 1 >= best:
            break
        for extra in itertools.combinations(others, r):
            nodes = terminals | set(extra)
            if _induced_connected(g, nodes):
                best = len(nodes) - 1
                break
    return best


def optimal_leaf_counts(g: ConnectivityGraph, terminals: set[int], weight: int) -> set[int]:
    """Leaf counts over all spanning trees of all optimal vertex sets."""
    counts = set()
    others = sorted(set(g.vertices) - terminals)
    for extra in itertools.combinations(others, weight + 1 - len(terminals)):
        nodes = terminals | set(extra)
        if not _induced_connected(g, nodes):
            continue
        sub = nx.Graph([(u, v) for u, v in g.edges if u in nodes and v in nodes])
        sub.add_nodes_from(nodes)
        for tree in nx.SpanningTreeIterator(sub):
            counts.add(sum(1 for v in tree if tree.degree(v) == 1))
    return counts


def _induced_connected(g: ConnectivityGraph, nodes: set[int]) -> bool:
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in nodes and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == nodes


def check_tree(tree, g: ConnectivityGraph, terminals, root):
    """Structural invariants: spans terminals, leaves are terminals, edges exist, acyclic."""
    assert tree.root == root
    assert set(terminals) <= tree_nodes(tree)
    for leaf in tree_leaves(tree):
        assert leaf in terminals
    parents, children = rooted(tree)
    for child, parent in parents.items():
        assert g.has_edge(child, parent)
        assert child in children[parent]
    # parent map acyclicity: walking up always reaches the root
    for v in tree_nodes(tree):
        seen = set()
        while v != tree.root:
            assert v not in seen
            seen.add(v)
            v = parents[v]


# -- presets ------------------------------------------------------------------


def test_appendix_2x3_structure():
    g = preset_graph("appendix-2x3")
    assert g.num_vertices == 6
    assert len(g.edges) == 7
    assert len(g.neighbors(2)) == 3


def test_9q_square_structure():
    g = preset_graph("9q-square")
    assert g.num_vertices == 9
    assert len(g.edges) == 12


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_connected_simple(name):
    g = preset_graph(name)
    assert is_connected(g)
    for u, v in g.edges:
        assert u < v  # normalized, no self loops or duplicates


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        preset_graph("17q-triangle")


def test_graph_file_round_trip():
    g = preset_graph("ibm-qx5")
    assert parse_graph(write_graph(g)) == g


# -- shortest paths -----------------------------------------------------------


def test_path_trivial(grid2x3):
    assert shortest_path(grid2x3, 2, 2) == [2]


def test_path_2_to_4(grid2x3):
    # oracle: distance 2 on the 6-node graph; deterministic pick is via vertex 3
    assert bfs_distance(grid2x3, 2, 4) == 2
    assert shortest_path(grid2x3, 2, 4) == [2, 3, 4]


def test_path_1_to_4_length(grid2x3):
    assert bfs_distance(grid2x3, 1, 4) == 3
    path = shortest_path(grid2x3, 1, 4)
    assert len(path) == 4


def test_path_respects_low(grid2x3):
    assert shortest_path(grid2x3, 6, 2) == [6, 1, 2]
    assert shortest_path(grid2x3, 6, 2, low=2) == [6, 5, 2]  # vertex 1 is below the suffix 2..6
    with pytest.raises(NoPathError):
        shortest_path(grid2x3, 2, 4, low=3)  # an endpoint below it
    with pytest.raises(NoPathError):
        shortest_path(star_graph(4), 2, 3, low=2)  # the suffix 2..4 of a star has no edge


def test_paths_match_bfs_oracle_on_presets():
    cut_off = 0
    for g in [preset_graph(name) for name in PRESET_NAMES] + [star_graph(5), bridge_graph()]:
        n = g.num_vertices
        for u in g.vertices:
            assert distances(g, u) == {v: bfs_distance(g, u, v) for v in g.vertices}
            for v in g.vertices:
                path = shortest_path(g, u, v)
                assert len(path) - 1 == bfs_distance(g, u, v)
                assert path[0] == u and path[-1] == v
                for a, b in zip(path, path[1:]):
                    assert g.has_edge(a, b)
        for low in g.vertices:
            # every suffix low..n; vertices it cuts off (on the star and bridge graphs) must be absent from the result
            active = range(low, n + 1)
            for u in active:
                dist = distances(g, u, low)
                oracle = {v: bfs_distance(g, u, v, active) for v in active}
                assert dist == {v: d for v, d in oracle.items() if d is not None}
                cut_off += len(active) - len(dist)
    assert cut_off > 0


# -- Steiner trees ------------------------------------------------------------


def test_single_terminal(grid2x3):
    tree = steiner_tree(grid2x3, {3}, 3)
    assert tree_nodes(tree) == {3}
    assert tree.edge_count == 0


def test_appendix_tree_column1(grid2x3):
    # the worked example's first tree: path 1-2-3-4-5 with 2 the only Steiner node
    tree = steiner_tree(grid2x3, {1, 3, 4, 5}, 1)
    assert set(rooted(tree)[0].items()) == {(2, 1), (3, 2), (4, 3), (5, 4)}
    check_tree(tree, grid2x3, {1, 3, 4, 5}, 1)


def test_appendix_tree_column2(grid2x3):
    # pivot 2, terminals {2,3,4,6} on the graph without vertex 1: Steiner node 5
    tree = steiner_tree(grid2x3, {2, 3, 4, 6}, 2, 2)
    assert set(rooted(tree)[0].items()) == {(3, 2), (4, 3), (5, 2), (6, 5)}


def test_disconnected_terminals(grid2x3):
    with pytest.raises(DisconnectedTerminalsError):
        steiner_tree(bridge_graph(), {3, 5}, 3, 2)  # the suffix 2..5 cuts vertex 5 off
    with pytest.raises(DisconnectedTerminalsError):
        steiner_tree(star_graph(4), {2, 3, 4}, 4, low=2)
    with pytest.raises(ValueError, match="inside the vertices 3..6"):
        steiner_tree(grid2x3, {2, 4}, 4, 3)  # a terminal below the suffix


def test_root_must_be_terminal(grid2x3):
    with pytest.raises(ValueError):
        steiner_tree(grid2x3, {3, 4}, 1)


def test_approximation_bound_random_sample():
    rng = random.Random(20260810)
    checked = 0
    for _ in range(150):
        n = rng.randint(3, 7)
        g = random_connected_graph(rng, n)
        k = rng.randint(2, min(4, n))
        terminals = set(rng.sample(range(1, n + 1), k))
        root = min(terminals)
        tree = steiner_tree(g, terminals, root)
        check_tree(tree, g, terminals, root)
        opt = optimal_steiner(g, terminals)
        if tree.edge_count == opt:
            checked += 1
            continue
        leaf_counts = optimal_leaf_counts(g, terminals, opt)
        bound = max(2 * (1 - 1 / l) * opt for l in leaf_counts)
        assert tree.edge_count <= bound, (g.edges, terminals, tree.edge_count, opt)
        checked += 1
    assert checked == 150


# -- reference: the pair-scan merge, kept here as the specification -------------


def _early_stop_merge_path(g, u, v, active):
    # BFS from min(u, v), neighbors in descending order, stopped once max(u, v) is popped
    a, b = (u, v) if u < v else (v, u)
    parent = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for w in sorted(g.neighbors(x), reverse=True):
            if w in active and w not in parent:
                parent[w] = x
                queue.append(w)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path if path[0] == u else path[::-1]


def _reference_root_tree(edges, root, terminals):
    """BFS from the root over an adjacency list sorted per vertex; children sorted again.

    The tree is built from the edges' adjacency, and the parent and children it
    derives must equal this BFS's.
    """
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    adj.setdefault(root, [])
    parent, seen, children = {}, {root}, {v: [] for v in adj}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for w in sorted(adj[x]):
            if w not in seen:
                seen.add(w)
                parent[w] = x
                children[x].append(w)
                queue.append(w)
    children = {v: tuple(sorted(cs)) for v, cs in children.items()}
    tree = SteinerTree(root, terminals, len(parent), adj)
    assert rooted(tree) == (parent, children)
    return tree


def test_path_tree_matches_rooting_its_edges():
    rng = random.Random(4242)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 12))
        u, v = rng.sample(list(g.vertices), 2)
        path = shortest_path(g, u, v)
        edges = {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}
        got, want = path_tree(path), _reference_root_tree(edges, u, frozenset({u, v}))
        assert (got.root, got.terminals, *rooted(got)) == (want.root, want.terminals, *rooted(want))
    single = path_tree([3])
    assert (single.root, single.terminals, *rooted(single)) == (
        3,
        frozenset({3}),
        {},
        {3: ()},
    )


def _reference_kruskal(edges):
    # All weights are 1, so the spanning tree is built in lexicographic edge order.
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    kept = set()
    for a, b in sorted(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            kept.add((a, b))
    return kept


def _reference_prune(edges, terminals):
    """Drop non-terminal leaves until none is left."""
    edges = set(edges)
    while True:
        degree = Counter(v for e in edges for v in e)
        dead = {v for v, d in degree.items() if d == 1 and v not in terminals}
        if not dead:
            return edges
        edges = {e for e in edges if e[0] not in dead and e[1] not in dead}


def _reference_steiner_tree(g, terminals, root, active, counts):
    """Every round rescans all vertex pairs of all forest pairs for the closest one,
    and the last subgraph is reduced to a spanning tree without non-terminal leaves.

    ``counts["shared"]`` counts merges of two subgraphs that already share a
    vertex, ``counts["trimmed"]`` merges whose subgraph that reduction would change.
    """
    term_set = frozenset(terminals)
    if len(term_set) == 1:
        return _reference_root_tree(set(), root, term_set)
    forest = [([t], set()) for t in sorted(term_set)]
    while len(forest) > 1:
        best = None  # (dist, normalized endpoint pair, i, j)
        for i in range(len(forest)):
            set_i = set(forest[i][0])
            for j in range(i + 1, len(forest)):
                shared = set_i & set(forest[j][0])
                if shared:
                    key = (0, (min(shared), min(shared)), i, j)
                else:
                    cand = [
                        (d, (min(u, v), max(u, v)))
                        for u in forest[i][0]
                        for v in forest[j][0]
                        if (d := bfs_distance(g, u, v, active)) is not None
                    ]
                    if not cand:
                        continue
                    key = min(cand) + (i, j)
                if best is None or key[:2] < best[:2]:
                    best = key
        if best is None:
            raise DisconnectedTerminalsError("disconnected")
        dist, (u, v), i, j = best
        counts["merges"] += 1
        counts["shared"] += dist == 0
        path = [] if dist == 0 else _early_stop_merge_path(g, u, v, active)
        new_edges = forest[i][1] | forest[j][1]
        for a, b in zip(path, path[1:]):
            new_edges.add((min(a, b), max(a, b)))
        new_verts = list(dict.fromkeys(forest[i][0] + forest[j][0] + path))
        forest = [f for k, f in enumerate(forest) if k not in (i, j)]
        forest.append((new_verts, new_edges))
        counts["trimmed"] += _reference_prune(_reference_kruskal(new_edges), term_set) != new_edges
    edges = _reference_prune(_reference_kruskal(forest[0][1]), term_set)
    return _reference_root_tree(edges, root, term_set)


def _reference_graphs():
    rng = random.Random(7070)
    for name in PRESET_NAMES:
        yield preset_graph(name)
    yield star_graph(6)
    yield bridge_graph()
    for _ in range(25):
        yield random_connected_graph(rng, rng.randint(3, 12))


def test_steiner_tree_matches_pair_scan_reference():
    rng = random.Random(20261018)
    seen = {"suffix": 0, "full": 0, "two": 0, "disconnected": 0}
    counts = Counter()
    for g in _reference_graphs():
        n = g.num_vertices
        for trial in range(40):
            kind = ("full", "suffix")[trial % 2]
            low = 1 if kind == "full" else rng.randint(2, n - 1)
            active = range(low, n + 1)
            k = min(len(active), rng.choice([1, 2, 2, 3, 4, rng.randint(2, n)]))
            terminals = set(rng.sample(active, k))
            root = rng.choice(sorted(terminals))
            try:
                want = _reference_steiner_tree(g, terminals, root, active, counts)
            except DisconnectedTerminalsError:
                with pytest.raises(DisconnectedTerminalsError):
                    steiner_tree(g, terminals, root, low)
                seen["disconnected"] += 1
                continue
            got = steiner_tree(g, terminals, root, low)
            assert (got.root, *rooted(got)) == (want.root, *rooted(want)), (sorted(g.edges), terminals, root, low)
            assert got.edge_count == len(rooted(want)[0])
            seen[kind] += 1
            seen["two"] += k == 2
    assert min(seen.values()) > 20, seen
    # A merge path never enters a third subgraph: a vertex it met would sit
    # closer than the chosen pair. So no two subgraphs ever share a vertex,
    # and the reference's shared-vertex branch never fires. Each merge then
    # joins two trees whose leaves are terminals by a path between them, so
    # every subgraph is already its own spanning tree with no non-terminal leaf.
    assert counts["shared"] == 0
    assert counts["trimmed"] == 0
    assert counts["merges"] > 1000, counts


def test_merge_path_matches_early_stopping_bfs():
    rng = random.Random(11)
    checked = unreachable = 0
    for g in _reference_graphs():
        n = g.num_vertices
        for _ in range(30):
            low = rng.randint(1, n - 1)
            active = range(low, n + 1)
            u, v = rng.sample(active, 2)
            if bfs_distance(g, u, v, active) is None:
                with pytest.raises(DisconnectedTerminalsError):
                    merge_path(g, u, v, low)
                unreachable += 1
                continue
            assert merge_path(g, u, v, low) == _early_stop_merge_path(g, u, v, active)
            checked += 1
    assert checked > 500 and unreachable > 0


def _steiner_pin_cases():
    """About 2,000 seeded (graph, terminals, root, low) cases: 3-8 terminals, the whole graph and suffixes low..n."""
    graphs = {name: preset_graph(name) for name in PRESET_NAMES} | {"grid-5x5": grid_graph(5, 5)}
    for name, g in graphs.items():
        rng = random.Random(f"steiner-pin-{name}")
        n = g.num_vertices
        for trial in range(290):
            # every suffix of a preset or a grid stays connected, so every case spans
            low = 1 if trial % 2 else rng.randint(1, n - 2)
            active = range(low, n + 1)
            terminals = rng.sample(active, min(len(active), rng.randint(3, 8)))
            yield name, g, frozenset(terminals), rng.choice(terminals), low


# sha256 over (case, sorted parent items, sorted children items) of every _steiner_pin_cases tree
PINNED_STEINER = "087a2f8a2213bf24da24ccc564c1dbd50a4ba665e6348341d8d0c5f92bcf429a"


def test_steiner_tree_pinned():
    # pins the merge order and every tie-break, beyond the trees the pipelines reach
    digest = hashlib.sha256()
    cases = 0
    for name, g, terminals, root, low in _steiner_pin_cases():
        tree = steiner_tree(g, terminals, root, low)
        parent, children = rooted(tree)
        assert all(list(kids) == sorted(kids) for kids in children.values())
        fields = (name, sorted(terminals), root, low, sorted(parent.items()), sorted(children.items()))
        digest.update(repr(fields).encode())
        cases += 1
    assert cases > 2000
    assert digest.hexdigest() == PINNED_STEINER
