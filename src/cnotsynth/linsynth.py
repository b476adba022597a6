"""Synthesis of {CNOT, X} circuits realizing an augmented transform on a coupling graph.

The strategy is reverse-engineered Gaussian elimination: reduce the linear block
to upper-triangular form with row operations permitted by the graph, transpose,
reduce again, then assemble the circuit as (second-phase CNOTs with control and
target flipped) + (first-phase CNOTs reversed) + (X gates clearing the flip
column). Steiner trees route each column's row operations; trees are cut into
sub-trees whose roots and leaves are terminals, and each sub-tree is traversed
in up to four passes that cancel terminal rows while restoring Steiner rows.

A tree walk costs one pass over its edges. Two terminals are joined by their
merge path (:func:`~cnotsynth.topology.merge_path`), the whole tree and its own
single sub-tree, so no tree is built; more are cut from their Steiner tree by
:func:`_subtrees`, whose cut roots the tree's adjacency in its BFS and reads
each sub-tree's passes off one top-down and one bottom-up ordering. Column i
searches inside the vertices it has not yet fixed, i..n (the Steiner-Gauss
elimination), passed to :mod:`~cnotsynth.topology` as the lower bound
``low = i``. A column i with one term t to clear takes its (record, CNOTs) from
:func:`_route` at (low i, i, t, alg), the per-graph memo that also holds the
pipelines' routes at low 1. One loop, :func:`_apply`, applies records to a
matrix and appends their CNOTs to the phase's list: a column's row operation,
the diagonal fix's chain, and the routing fallbacks and the corrections, which
clear a row along a shortest path with no tree at all. The corrections walk
inside i..n; only a term bridged through fixed vertices and a pivot candidate
unreachable inside i..n cross them, by the routing fallbacks at low 1. The
elimination keeps its bookkeeping in int bitsets (bit j for row or column j):
the rows that differ from the identity and the columns left with work, both
updated from the targets of each column's CNOTs. The phase network
(:mod:`cnotsynth.phasesynth`) takes two terminals from :func:`_route` and cuts
only trees of three or more terminals, one path per leaf (alg 4), by
:func:`_subtrees`; it applies each path's net effect itself.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable

from .circuit import Circuit, Gate, GateKind, cnot
from .linalg import CONST_BIT, AugmentedTransform, OverBudget, SingularTransformError
from .topology import ConnectivityGraph, NoPathError, SteinerTree, distances, merge_path, shortest_path, steiner_tree


_Edge = tuple[int, int]
# one piece of a cut tree: (root, leaves, the (parent, child) edges of its passes)
_SubTree = tuple[int, tuple[int, ...], list[_Edge]]


def _subtrees(g: ConnectivityGraph, terminals: set[int], root: int, alg: int, low: int = 1) -> list[_SubTree]:
    """ROW-OP's (root, leaves, edges) records for three or more ``terminals`` around ``root``, inside low..n.

    They are :func:`_cut` from their Steiner tree. Two terminals are one path, whose record :func:`_route`
    builds straight from their merge path, so no tree is built for them.
    """
    return _cut(steiner_tree(g, terminals, root, low), alg)


def _route(
    g: ConnectivityGraph, u: int, v: int, low: int = 1, alg: int = 2
) -> tuple[_SubTree, tuple[Gate, ...]]:
    """The ROW-OP record rooted at ``u`` of the merge path from ``u`` to ``v`` through low..n, and its CNOTs.

    At the defaults, low 1 and alg 2, the CNOTs are CNOT(u, v) on ``g``: the CNOT itself on an edge, else
    4(d-1) CNOTs at distance d, at most the SWAP chain's 6(d-1)+1. They are also the phase network's expansion
    of the two terminals at ``v`` (a merge path reversed is that of its ends swapped; alg 4 shares alg 2's
    passes). Memoized on ``g`` per (low, u, v, alg); the bound is in :class:`~cnotsynth.topology.ConnectivityGraph`.
    """
    memo = g.__dict__.setdefault("_route", {})
    if (hit := memo.get((low, u, v, alg))) is None:
        record = _path_record(merge_path(g, u, v, low), alg)
        hit = memo[low, u, v, alg] = record, tuple(cnot(p, c) for p, c in record[2])
    return hit


def _cut(tree: SteinerTree, alg: int) -> list[_SubTree]:
    """Cut a Steiner tree into edge-disjoint sub-trees rooted at its terminals.

    A BFS from the tree's root roots its adjacency as it goes (each vertex's
    children, ascending) and stops at every terminal it reaches; interior
    terminals seed later sub-trees (processed FIFO). Each sub-tree's terminals
    are its root and the terminals it reached, which are exactly its leaves
    (listed in ascending order), so a vertex inside a sub-tree is a leaf exactly
    when it is a terminal. For ``alg == 4`` (the phase network's path-per-leaf
    mode) every sub-tree is further split into one path per leaf, in the order
    the BFS reached them, with root and leaf exchanged. Each record carries the
    (parent, child) edges of its ``alg`` passes, in order: top-down passes take
    edges by (child layer, child index), bottom-up ones by (-child layer, child
    index). ``alg == 1`` runs top-down-1 (every edge) and bottom-up-2 (edges
    into non-leaves, that is, non-terminals); the others first run bottom-up-1
    (edges out of non-roots) and end with top-down-2 (edges out of non-roots
    into non-leaves).
    """
    terminals, adj = tree.terminals, tree.adj
    parent = {tree.root: 0}  # 0 is no vertex: the root's parent
    pending = deque([tree.root])
    remaining = len(terminals) - 1
    out: list[_SubTree] = []
    while remaining:
        root = pending.popleft()
        # BFS from root one layer at a time, cutting at terminals
        leaves: list[int] = []
        levels: list[list[int]] = []  # levels[d]: the vertices at depth d + 1; alg 4 reads none
        frontier = [root]
        while frontier:
            level: list[int] = []
            for u in frontier:
                up = parent[u]
                below = [w for w in adj[u] if w != up]
                below.sort()
                for w in below:
                    parent[w] = u
                level += below
            levels.append(level)  # never empty: a non-terminal is no leaf
            frontier = []
            for w in level:
                if w in terminals:
                    leaves.append(w)
                    remaining -= 1
                    if len(adj[w]) > 1:
                        pending.append(w)  # interior terminal: roots a later sub-tree
                else:
                    frontier.append(w)
        if alg == 4:
            for leaf in leaves:
                path = [leaf]
                while path[-1] != root:
                    path.append(parent[path[-1]])
                out.append(_path_record(path, alg))
            continue
        for level in levels:
            level.sort()
        down = [(parent[c], c) for level in levels for c in level]
        up_edges = [(parent[c], c) for level in reversed(levels) for c in level]
        passes = down + [e for e in up_edges if e[1] not in terminals]
        if alg != 1:
            inner_down = [e for e in down if e[0] != root and e[1] not in terminals]
            passes = [e for e in up_edges if e[0] != root] + passes + inner_down
        leaves.sort()
        out.append((root, tuple(leaves), passes))
    return out


def _path_record(path: list[int], alg: int) -> _SubTree:
    """The record of the path rooted at ``path[0]``: its one leaf ``path[-1]`` and its passes."""
    return path[0], (path[-1],), _path_passes(path, alg)


def _path_passes(path: list[int], alg: int) -> list[_Edge]:
    """The passes over the path rooted at ``path[0]`` with its one leaf at ``path[-1]``."""
    down = list(zip(path, path[1:]))
    up = down[::-1]
    # bottom-up-1 skips the root's edge, bottom-up-2 the leaf's, top-down-2 both
    if alg == 1:
        return down + up[1:]
    return up[:-1] + down + up[1:] + down[1:-1]


def row_op(matrix, tree: SteinerTree, alg: int) -> tuple[list[Gate], list[_SubTree]]:
    """Emit the CNOTs that clear a column's terminal rows, updating ``matrix``.

    The terminals are ``tree.terminals`` and the pivot is ``tree.root``.
    Returns the CNOTs and the (root, leaves, edges) records :func:`_cut` cut
    ``tree`` into, applied by :func:`_apply`. ``alg`` selects the traversal
    set: 1 skips the first bottom-up and second top-down passes
    (upper-triangular phase) and 2 runs all four.
    """
    if alg not in (1, 2):
        raise ValueError(f"alg must be 1 or 2, got {alg}")
    cut = _cut(tree, alg)
    return _apply(matrix, cut, []), cut


def _apply(matrix, subtrees: list[_SubTree], out: list[Gate]) -> list[Gate]:
    """Apply the records' edges to ``matrix``, starting from the last sub-tree; append their CNOTs to ``out``.

    ``matrix`` only needs a list of row bitsets ``rows`` (row i at index i - 1); it is mutated in place.
    The CNOT for edge (u, v) with u the parent is CNOT(control=u, target=v),
    which as a row operation adds row u into row v. Returns ``out``.
    """
    rows = matrix.rows
    for _, _, edges in reversed(subtrees):
        out += [cnot(u, v) for u, v in edges]
        for u, v in edges:
            rows[v - 1] ^= rows[u - 1]
    return out


def _ones_below(a: AugmentedTransform, i: int, touched: int) -> set[int]:
    """The rows j > i in the bitset ``touched`` (bit j is row j) whose column-i entry is 1."""
    below, rest = set(), touched >> (i + 1) << (i + 1)
    while rest:
        j = (rest & -rest).bit_length() - 1
        rest ^= 1 << j
        if a.rows[j - 1] >> i & 1:
            below.add(j)
    return below


def _fix_diagonal(
    a: AugmentedTransform, g: ConnectivityGraph, i: int, candidates: set[int], out: list[Gate]
) -> list[Gate]:
    """Propagate a 1 from ``candidates`` (rows below A[i, i] with a 1 in column i) up into A[i, i]; CNOTs to ``out``."""
    if not candidates:
        raise SingularTransformError(f"no pivot available for column {i}")
    dist = distances(g, i, i)
    reachable = [j for j in candidates if j in dist]
    if reachable:
        best = min(reachable, key=lambda j: (dist[j], j))
        # chain from the leaf end so the 1 walks up to the pivot row
        path = shortest_path(g, i, best, i)[::-1]
        return _apply(a, [(best, (i,), list(zip(path, path[1:])))], out)
    # no candidate reachable inside the shrunken graph: route through fixed
    # vertices with a full interior-restoring path (leaf gains the root row)
    dist = distances(g, i)
    if not candidates <= dist.keys():
        raise NoPathError(f"a pivot candidate for column {i} is unreachable from {i}")
    best = min(candidates, key=lambda j: (dist[j], j))
    return _apply(a, [_path_record(shortest_path(g, best, i), 2)], out)


def _eliminate_column(
    a: AugmentedTransform, g: ConnectivityGraph, i: int, terms: set[int], alg: int, out: list[Gate]
) -> list[_SubTree]:
    """Clear the 1s of column i in rows ``terms``, appending the CNOTs to ``out``; returns the cut inside i..n."""
    reachable = terms & distances(g, i, i).keys()
    if len(reachable) == 1:  # the merge path from i < t, off the BFS tree grown from i, built once per graph
        record, cnots = _route(g, i, *reachable, i, alg)
        for u, v in record[2]:
            a.rows[v - 1] ^= a.rows[u - 1]
        out += cnots
        cut = [record]
    else:
        cut = _subtrees(g, reachable | {i}, i, alg, i) if reachable else []
        _apply(a, cut, out)
    for t in sorted(terms - reachable):
        # route through already-fixed vertices; the four passes leave interior rows intact
        _apply(a, [_path_record(shortest_path(g, i, t), 2)], out)
    return cut


def _corrections(
    a: AugmentedTransform, g: ConnectivityGraph, i: int, subtrees: list[_SubTree], out: list[Gate]
) -> None:
    """Re-pair every leaf whose sub-tree root has a larger index, appending the CNOTs to ``out``.

    After the alg=2 pass each leaf row equals (own row + root row); when the
    root index exceeds the leaf index this would leave a 1 above the diagonal,
    so the leaf is chased down the chain of earlier roots until its partner has
    a smaller index. ``partner``, built at the first such leaf, maps each leaf to its current pairing
    row. Each walk joins two vertices of column i's cut, which is connected inside i..n.
    """
    partner: dict[int, int] = {}
    for root, leaves, _ in subtrees:
        for leaf in leaves:
            r = root
            while r > leaf:
                partner = partner or {lf: rt for rt, lfs, _ in subtrees for lf in lfs}
                _apply(a, [_path_record(shortest_path(g, r, leaf, i), 2)], out)
                partner[leaf] = partner[r]
                r = partner[r]


def linear_tf_synth(
    a: AugmentedTransform,
    g: ConnectivityGraph,
    trace: Callable[..., None] | None = None,
    budget: float = math.inf,
) -> Circuit:
    """Synthesize a {CNOT, X} circuit realizing ``a`` with every CNOT on an edge of ``g``.

    Replaying the returned circuit through the transform rules from the identity
    reproduces ``a`` exactly (padded with identity rows if the graph is larger).
    Row operations preserve rank, so a singular ``a`` reaches a column with no
    pivot, which raises :class:`SingularTransformError`.

    Beyond O(n) set-up per phase (padding, the transpose, finding the rows that
    differ from the identity), the cost is the work: a column with work has an
    unset diagonal or a 1 below it in such a row, so a mask of the columns those
    rows can reach picks each next column to visit, and only those rows are
    scanned for 1s below the diagonal. Columns with nothing to clear are never
    visited; an identity linear block visits none. ``trace``, when given, is
    still called after every column of each elimination phase, in order, as
    ``trace("column", phase=, column=, diag=, tree=, corrections=, matrix=)``:
    the CNOTs of the diagonal fix, of the Steiner-tree pass and of the
    corrections (phase 2 only), empty for a column without work, and a copy of
    the matrix after the column.

    :class:`~cnotsynth.linalg.OverBudget` is raised, in place of the column's
    trace event and all later work, after the first column that brings the
    CNOTs of both phases to ``budget`` (at once when ``budget`` is at most 0):
    exactly when the call without a budget returns at least ``budget`` CNOTs.
    Below that the result and the trace events are the same. A singular ``a``
    may raise OverBudget before it reaches its column with no pivot.
    """
    if a.n > g.num_vertices:
        raise ValueError(f"transform needs {a.n} qubits but graph has {g.num_vertices}")
    if budget <= 0:
        raise OverBudget(f"restore budget {budget} is not positive")
    work = a.padded(g.num_vertices)
    n = work.n

    x_gates = [Gate(GateKind.X, i) for i in range(1, n + 1) if work.rows[i - 1] & CONST_BIT]
    for gt in x_gates:
        work.rows[gt.target - 1] ^= CONST_BIT

    # phase 1 (alg 1) reaches upper-triangular form; phase 2 (alg 2) reduces
    # the transpose of that to the identity
    y: dict[int, list[Gate]] = {1: [], 2: []}
    left = budget  # CNOTs still to emit before the budget is reached
    for phase in (1, 2):
        if phase == 2:
            work = work.transposed_linear()
        rows, out = work.rows, y[phase]
        # bit j of touched: row j differs from the identity (a CNOT changes only its target). Bit k of pending:
        # column k may have work, as row k lacks its diagonal or a touched row j > k holds a 1 in it; each time
        # row j changes it adds its bits below j, and j itself while it lacks its diagonal
        touched = pending = 0
        for j in range(1, n + 1):
            if rows[j - 1] != 1 << j:
                touched |= 1 << j
                pending |= rows[j - 1] & ((1 << j) - 1) | ~rows[j - 1] & 1 << j
        i = 0
        while True:
            ahead = pending >> (i + 1) << (i + 1)
            nxt = (ahead & -ahead).bit_length() - 1 if ahead else n + 1
            if trace:
                for k in range(i + 1, nxt):
                    trace("column", phase=phase, column=k, diag=[], tree=[], corrections=[], matrix=work.copy())
            if nxt > n:
                break
            i = nxt
            start = tree = corr = len(out)  # the column's diagonal-fix, tree and correction CNOTs start here
            below = _ones_below(work, i, touched)
            if below or not rows[i - 1] >> i & 1:
                if not rows[i - 1] >> i & 1:
                    _fix_diagonal(work, g, i, below, out)
                    tree = len(out)
                    below = _ones_below(work, i, (2 << n) - 2)  # every row j > i: the fix may change untouched ones
                subtrees = _eliminate_column(work, g, i, below, phase, out)
                corr = len(out)
                if phase == 2:
                    _corrections(work, g, i, subtrees, out)
                for gt in out[start:]:
                    t = gt.target
                    touched |= 1 << t
                    pending |= rows[t - 1] & ((1 << t) - 1) | ~rows[t - 1] & 1 << t
            left -= len(out) - start
            if left <= 0:
                raise OverBudget("restore reached its CNOT budget")
            if trace:
                parts = dict(diag=out[start:tree], tree=out[tree:corr], corrections=out[corr:])
                trace("column", phase=phase, column=i, **parts, matrix=work.copy())

    assert work.is_identity(), "elimination failed to reach the identity"

    flipped = [cnot(gt.target, gt.control) for gt in y[2]]
    return Circuit.trusted(n, tuple(flipped + y[1][::-1] + x_gates))
