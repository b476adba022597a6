"""Connectivity graphs, shortest paths, and the merge-based Steiner-tree approximation.

The Steiner heuristic keeps a forest of subgraphs (initially one per terminal) and
repeatedly joins the two closest ones along a shortest path. All choices are
deterministic:

* pair selection: smallest (distance, normalized endpoint pair), then the pair
  of subgraphs created first;
* path between the chosen endpoints: parent walk in a BFS tree grown from the
  smaller endpoint with neighbors expanded in descending index order.

A merge path's interior meets no subgraph: a vertex it met would sit closer
than the chosen pair. So every merge joins two trees by a path whose ends are
their only shared vertices, and the forest stays a forest of trees whose leaves
are terminals. The last subgraph is therefore the Steiner tree itself; no
spanning-tree or pruning pass is needed. It is within 2(1 - 1/l) of the
optimum, l being the leaf count of an optimal tree.

Every search runs inside a suffix of the vertices, low..n: the whole graph at
``low = 1``, and what is left of it after LINEAR-TF-SYNTH has fixed the columns
below ``low``. Every distance and path question is answered from one BFS per
(graph, low, source), memoized lazily on the graph. The closest pair of every
two subgraphs is kept in a table of comparable tuples; after a merge only the new
path vertices are scanned against the other subgraphs, and a candidate pair is
built only when it is no farther than the best one. The merges write their
edges into one adjacency map, kept by the tree; a walk from the root turns it
into the tree. Two terminals take one merge: their tree is :func:`merge_path`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Callable, Iterable


class NoPathError(ValueError):
    """Two vertices that must be connected are not reachable from each other."""


class DisconnectedTerminalsError(NoPathError):
    """A terminal set cannot be spanned inside the allowed vertex subset."""


class UnknownPresetError(ValueError):
    pass


@dataclass(frozen=True)
class ConnectivityGraph:
    """Simple undirected unit-weight graph on vertices 1..num_vertices.

    Three memos are filled lazily in its ``__dict__``, which equality and hash ignore; each is
    shared by every caller, so none of its values may be mutated:

    * ``_adj``: each vertex's neighbors, ascending (n entries);
    * ``_bfs``: per ``low``, the BFS through low..n and its (distances, parents) per source
      (:func:`_searches`; at most n values of ``low``, each with at most n sources);
    * ``_route``: per (low, u, v, alg), the ROW-OP record of the merge path from u to v through
      low..n and its CNOTs (:func:`cnotsynth.linsynth._route`; at most 2n(n-1) entries: the
      pipelines' routes at low 1 and alg 2, and LINEAR-TF-SYNTH's one-term columns, u = low < v).
    """

    num_vertices: int
    edges: frozenset[tuple[int, int]]  # normalized (u, v) with u < v

    @staticmethod
    def from_edges(num_vertices: int, edges: Iterable[tuple[int, int]]) -> "ConnectivityGraph":
        return ConnectivityGraph(num_vertices, frozenset(_edge(num_vertices, u, v) for u, v in edges))

    @property
    def vertices(self) -> range:
        return range(1, self.num_vertices + 1)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    @cached_property
    def _adj(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def _edge(num_vertices: int, u: int, v: int) -> tuple[int, int]:
    """The normalized edge (min, max) of ``u`` and ``v``; raises ValueError for a bad edge."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
        raise ValueError(f"edge ({u},{v}) outside vertex range 1..{num_vertices}")
    return (u, v) if u < v else (v, u)


def parse_graph(text: str) -> ConnectivityGraph:
    """Parse the graph file format: ``vertices <n>`` then ``edge <u> <v>`` lines.

    Every error is a ValueError whose message starts with the line it is on.
    """
    num = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if num is None:
            if tokens[0] != "vertices" or len(tokens) != 2:
                raise ValueError(f"line {line_no}: expected header 'vertices <n>'")
            try:
                num = int(tokens[1])
            except ValueError:
                raise ValueError(f"line {line_no}: bad vertex count {tokens[1]!r}") from None
            if num < 1:
                raise ValueError(f"line {line_no}: vertex count must be positive")
            continue
        if tokens[0] != "edge" or len(tokens) != 3:
            raise ValueError(f"line {line_no}: expected 'edge <u> <v>'")
        try:
            u, v = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise ValueError(f"line {line_no}: bad vertex in {line!r}") from None
        try:
            edges.append(_edge(num, u, v))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    if num is None:
        raise ValueError("line 1: missing 'vertices <n>' header")
    return ConnectivityGraph(num, frozenset(edges))


def write_graph(g: ConnectivityGraph) -> str:
    lines = [f"vertices {g.num_vertices}"]
    lines += [f"edge {u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def grid_graph(rows: int, cols: int) -> ConnectivityGraph:
    """Square-grid coupling graph, vertices numbered row-major starting at 1."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return ConnectivityGraph.from_edges(rows * cols, edges)


def _appendix_2x3() -> ConnectivityGraph:
    return ConnectivityGraph.from_edges(
        6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)]
    )


def _rigetti_16q_aspen() -> ConnectivityGraph:
    # Two octagonal rings joined by a pair of bridges.
    ring1 = [(i, i + 1) for i in range(1, 8)] + [(8, 1)]
    ring2 = [(i, i + 1) for i in range(9, 16)] + [(16, 9)]
    return ConnectivityGraph.from_edges(16, ring1 + ring2 + [(1, 16), (8, 9)])


def _ibm_qx5() -> ConnectivityGraph:
    # ibmqx5 ladder, direction of the physical CNOTs dropped.
    edges0 = [
        (1, 0), (1, 2), (2, 3), (3, 4), (3, 14), (5, 4), (6, 5), (6, 7), (6, 11),
        (7, 10), (8, 7), (9, 8), (9, 10), (11, 10), (12, 5), (12, 11), (12, 13),
        (13, 4), (13, 14), (15, 0), (15, 2), (15, 14),
    ]
    return ConnectivityGraph.from_edges(16, [(u + 1, v + 1) for u, v in edges0])


def _ibm_q20_tokyo() -> ConnectivityGraph:
    rows = [
        (0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9),
        (10, 11), (11, 12), (12, 13), (13, 14), (15, 16), (16, 17), (17, 18), (18, 19),
    ]
    cols = [
        (0, 5), (5, 10), (10, 15), (1, 6), (6, 11), (11, 16), (2, 7), (7, 12),
        (12, 17), (3, 8), (8, 13), (13, 18), (4, 9), (9, 14), (14, 19),
    ]
    crossings = [
        (1, 7), (2, 6), (3, 9), (4, 8), (5, 11), (6, 10),
        (8, 12), (7, 13), (11, 17), (12, 16), (13, 19), (14, 18),
    ]
    edges0 = rows + cols + crossings
    return ConnectivityGraph.from_edges(20, [(u + 1, v + 1) for u, v in edges0])


_PRESETS = {
    "9q-square": lambda: grid_graph(3, 3),
    "16q-square": lambda: grid_graph(4, 4),
    "rigetti-16q-aspen": _rigetti_16q_aspen,
    "ibm-qx5": _ibm_qx5,
    "ibm-q20-tokyo": _ibm_q20_tokyo,
    "appendix-2x3": _appendix_2x3,  # last: `bench --graph all` leaves it out
}
PRESET_NAMES = tuple(_PRESETS)


def preset_graph(name: str) -> ConnectivityGraph:
    """Return a named coupling graph (see :data:`PRESET_NAMES`)."""
    if name not in _PRESETS:
        raise UnknownPresetError(f"unknown preset {name!r}; valid: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name]()


_Search = Callable[[int], tuple[dict[int, int], dict[int, int | None]]]


def _searches(g: ConnectivityGraph, low: int) -> _Search:
    """BFS through the vertices low..n from any source: ``search(source) -> (distances, parents)``.

    Neighbors are expanded in descending index order, which fixes the parent tree. The closure and
    its results per source are memoized on ``g`` per ``low`` and shared, so no dict may be mutated.
    """
    memo = g.__dict__.setdefault("_bfs", {})
    hit = memo.get(low)
    if hit is not None:
        return hit[1]
    table, adj = {}, g._adj

    def search(source: int) -> tuple[dict[int, int], dict[int, int | None]]:
        hit = table.get(source)
        if hit is None:
            dist = {source: 0}
            parent: dict[int, int | None] = {source: None}
            queue = [source]
            for u in queue:
                d = dist[u] + 1
                for w in reversed(adj[u]):
                    if w >= low and w not in dist:
                        dist[w] = d
                        parent[w] = u
                        queue.append(w)
            hit = table[source] = (dist, parent)
        return hit

    memo[low] = (table, search)
    return search


def distances(g: ConnectivityGraph, source: int, low: int = 1) -> dict[int, int]:
    """Hop distance from ``source`` to every vertex it reaches through the vertices low..n.

    The dict is memoized on ``g`` and shared: read it, do not mutate it.
    """
    return _searches(g, low)(source)[0]


def shortest_path(g: ConnectivityGraph, u: int, v: int, low: int = 1) -> list[int]:
    """Minimal-hop path from ``u`` to ``v`` using only the vertices low..n.

    Deterministic: the walk from ``u`` greedily takes the smallest-index neighbor
    that still lies on a shortest path, which yields the lexicographically
    smallest shortest path.
    """
    if min(u, v) < low or max(u, v) > g.num_vertices:
        raise NoPathError(f"endpoint outside the vertices {low}..{g.num_vertices}: {u} or {v}")
    if u == v:
        return [u]
    dist_v = distances(g, v, low)
    if u not in dist_v:
        raise NoPathError(f"no path from {u} to {v} through the vertices {low}..{g.num_vertices}")
    path = [u]
    cur = u
    while cur != v:
        cur = min(w for w in g.neighbors(cur) if dist_v.get(w, -1) == dist_v[cur] - 1)
        path.append(cur)
    return path


def merge_path(g: ConnectivityGraph, u: int, v: int, low: int = 1) -> list[int]:
    """The path from ``u`` to ``v`` that :func:`steiner_tree` joins the two terminals by.

    It is the parent walk in the BFS tree grown from min(u, v) through the vertices low..n;
    raises :class:`DisconnectedTerminalsError` if ``v`` is not reachable from ``u`` through them.
    """
    a, b = (u, v) if u < v else (v, u)
    dist, parent = _searches(g, low)(a)
    if b not in dist:
        raise _disconnected([a, b])
    path = [b]
    while (p := parent[path[-1]]) is not None:
        path.append(p)
    return path[::-1] if u < v else path  # path runs from b to a


@dataclass(frozen=True, eq=False)
class SteinerTree:
    """A tree over graph edges spanning ``terminals``, rooted at ``root``, kept as the merge loop's adjacency map.

    Every leaf is a terminal. Whoever needs the tree rooted walks ``adj`` from ``root``.
    """

    root: int
    terminals: frozenset[int]
    edge_count: int
    adj: dict[int, list[int]]  # each vertex's tree neighbors; a lone root has no entry


def steiner_tree(g: ConnectivityGraph, terminals: Iterable[int], root: int, low: int = 1) -> SteinerTree:
    """Approximate minimum Steiner tree over ``terminals``, rooted at ``root``.

    ``root`` must itself be a terminal. Only the vertices low..n may be used.
    Raises :class:`DisconnectedTerminalsError` if the terminals do not all lie in
    one component of the subgraph that low..n induce.
    """
    term_set = frozenset(terminals)
    if root not in term_set:
        raise ValueError(f"root {root} must be a terminal")
    if min(term_set) < low or max(term_set) > g.num_vertices:
        raise ValueError(f"terminals must lie inside the vertices {low}..{g.num_vertices}")
    order = sorted(term_set)
    search = _searches(g, low)

    # Forest of subgraphs keyed by creation order: id -> vertices. The subgraphs
    # share no vertex, so one adjacency map holds all their edges. closest[i, j]
    # (i < j) is (distance, x, y, i, j) for the closest pair x < y between
    # subgraphs i and j, so the smallest entry is the next merge; pairs that
    # cannot reach each other are absent.
    forest = {k: [t] for k, t in enumerate(order)}
    adj: defaultdict[int, list[int]] = defaultdict(list)
    new = len(order)  # the id of the next merged subgraph
    closest: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, t in enumerate(order[:-1]):
        dist_t = search(t)[0]
        for j in range(i + 1, len(order)):
            if order[j] in dist_t:
                closest[i, j] = (dist_t[order[j]], t, order[j], i, j)
    far = (inf,)  # farther than any pair
    while len(forest) > 1:
        if not closest:
            raise _disconnected(order)
        _, u, v, i, j = min(closest.values())
        del closest[i, j]
        # merge_path(g, u, v, low) walked inline, from v up the BFS tree grown from u < v; its interior
        # is new to the merged subgraph, as a shortest path between a closest pair meets no subgraph
        parent_u, fresh, x = search(u)[1], [], v
        while x != u:
            p = parent_u[x]
            adj[x].append(p)
            adj[p].append(x)
            fresh.append(p)
            x = p
        fresh.pop()  # the walk's last parent is u itself
        merged = forest.pop(i) + forest.pop(j) + fresh
        fresh_dist = [(x, search(x)[0]) for x in fresh] if forest else []
        for k, verts_k in forest.items():
            # the pairs into i, into j and from the fresh vertices all end in
            # different vertices, so tuples compare by (distance, x, y)
            best = min(closest.pop((i, k) if i < k else (k, i), far), closest.pop((j, k) if j < k else (k, j), far))
            for x, dist_x in fresh_dist:
                for y in verts_k:
                    d = dist_x.get(y, inf)
                    if d <= best[0] and (cand := (d, x, y) if x < y else (d, y, x)) < best:
                        best = cand  # only a pair no farther than the best is built
            if best is not far:
                closest[k, new] = best[:3] + (k, new)
        forest[new] = merged
        new += 1

    return SteinerTree(root, term_set, max(len(adj) - 1, 0), adj)  # a tree has one edge less than vertices


def _disconnected(terminals: list[int]) -> DisconnectedTerminalsError:
    return DisconnectedTerminalsError(f"terminals {terminals} are not connected within the subgraph they may use")

