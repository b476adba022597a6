import random
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from cnotsynth.circuit import PHASE_COEFF, GateKind
from cnotsynth.linalg import CONST_BIT, AugmentedTransform, OverBudget, ParityMatrix, f2_row_reduce, parity_mask
from cnotsynth.linsynth import _path_record
from cnotsynth.phasepoly import PhasePolySet, identity_state
from cnotsynth.topology import ConnectivityGraph, SteinerTree, distances, merge_path, preset_graph

# 6x6 linear transformation of the worked linear-synthesis example (flip column zero).
APPENDIX_A_BITS = [
    [1, 1, 0, 1, 1, 0, 0],
    [0, 0, 1, 1, 0, 1, 0],
    [1, 0, 1, 0, 1, 0, 0],
    [1, 1, 0, 1, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0],
    [0, 1, 0, 1, 0, 1, 0],
]

# The seven (coefficient, parity) terms of the worked phase-network example.
APPENDIX_PHASE_TERMS = [
    (1, parity_mask([1, 4, 5], const=True)),
    (2, parity_mask([2, 3, 5, 6])),
    (4, parity_mask([4, 5, 6], const=True)),
    (4, parity_mask([1, 2, 6], const=True)),
    (6, parity_mask([1, 2, 3], const=True)),
    (7, parity_mask([1, 2, 4, 6], const=True)),
    (1, parity_mask([2, 4, 5])),
]


def entry(a: AugmentedTransform, i: int, j: int) -> int:
    """Entry at row i, column j; column n+1 is the bit-flip column."""
    mask = CONST_BIT if j == a.n + 1 else 1 << j
    return 1 if a.rows[i - 1] & mask else 0


def f2_rank(rows: list[int]) -> int:
    return len(f2_row_reduce(rows)[0])


_ROW_BLOCK_ENTRIES = 1 << 16


def unitaries_equal_up_to_phase(u1: np.ndarray, u2: np.ndarray, tol: float = 1e-7) -> bool:
    """True iff u1 = e^{i theta} u2 within ``tol`` max-entry deviation.

    theta is read at u1's largest entry (the first one, in row-major order).
    Both passes go over blocks of rows, so no full-size temporary is built.
    """
    if u1.shape != u2.shape:
        return False
    step = max(1, _ROW_BLOCK_ENTRIES // (u1.size // len(u1)))
    blocks = range(0, len(u1), step)
    best, idx = -1.0, None
    for i in blocks:
        mags = np.abs(u1[i : i + step])
        k = np.unravel_index(np.argmax(mags), mags.shape)
        if mags[k] > best:
            best, idx = mags[k], (i + k[0],) + k[1:]
    if abs(u2[idx]) < tol:
        return False
    phase = u2[idx] / u1[idx]
    phase /= abs(phase)
    return all(np.abs(u1[i : i + step] * phase - u2[i : i + step]).max() <= tol for i in blocks)


def is_invertible(a: AugmentedTransform) -> bool:
    return f2_rank(a.rows) == a.n


def random_invertible(rng, n) -> AugmentedTransform:
    """A uniformly random invertible n x n transform with a random flip column."""
    while True:
        bits = [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(n)]
        a = AugmentedTransform.from_bits(bits)
        if is_invertible(a):
            return a


def is_connected(g: ConnectivityGraph) -> bool:
    """True iff every vertex of ``g`` is reachable from vertex 1."""
    return distances(g, 1).keys() == set(g.vertices)


def tree_nodes(tree: SteinerTree) -> frozenset[int]:
    return frozenset(tree.parent) | {tree.root}


def tree_leaves(tree: SteinerTree) -> tuple[int, ...]:
    """The tree's childless vertices, ascending."""
    return tuple(sorted(v for v in tree_nodes(tree) if not tree.children[v]))


def tree_depths(tree: SteinerTree) -> dict[int, int]:
    """Each vertex's depth below the root, walking the children lists."""
    depth = {tree.root: 0}
    queue = [tree.root]
    for v in queue:
        for w in tree.children[v]:
            depth[w] = depth[v] + 1
            queue.append(w)
    return depth


def path_tree(path: list[int]) -> SteinerTree:
    """The tree of a path: rooted at ``path[0]``, its two ends the terminals."""
    adj = {v: [] for v in path}
    for a, b in zip(path, path[1:]):
        adj[a].append(b)
        adj[b].append(a)
    return SteinerTree(path[0], frozenset({path[0], path[-1]}), len(path) - 1, adj)


def two_terminal_expansion_record(g: ConnectivityGraph, root: int, leaf: int):
    """The phase network's alg-4 record of a two-terminal expansion, as ROW-OP once built it.

    The merge path from ``leaf`` up to ``root`` roots the record at ``leaf``;
    its passes are alg 4's, which are alg 2's. The phase network now takes the
    CNOTs of ``_route(g, leaf, root)`` instead, which this record's must equal.
    """
    return _path_record(merge_path(g, root, leaf)[::-1], 4)


def star_graph(n: int) -> ConnectivityGraph:
    """The star with hub 1 on n vertices: every suffix low..n with low > 1 falls apart into single vertices."""
    return ConnectivityGraph.from_edges(n, [(1, v) for v in range(2, n + 1)])


def bridge_graph() -> ConnectivityGraph:
    """Five vertices whose suffixes 2..5 and 3..5 cut vertex 5 off; presets' suffixes never fall apart."""
    return ConnectivityGraph.from_edges(5, [(1, 2), (1, 4), (1, 5), (2, 4), (3, 4)])


def random_connected_graph(rng, n) -> ConnectivityGraph:
    """A connected graph on n vertices, each possible edge kept with probability 0.4."""
    while True:
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
        g = ConnectivityGraph.from_edges(n, edges)
        if is_connected(g):
            return g


def reference_fold(c):
    """Sum-over-paths fold of ``c``, written apart from the library's extraction.

    Returns ``touched``, which maps each parity to the indices of the H-free
    runs whose phase gates touch it, in gate order, and ``hs``, which holds
    (wire, states before, states after) for each H; the H takes fresh variable
    x_{n+1}, x_{n+2}, ... in turn.
    """
    state = list(identity_state(c.num_qubits))
    fresh, touched, hs = c.num_qubits, {}, []
    for gt in c.gates:
        i = gt.target - 1
        if gt.kind in PHASE_COEFF:
            touched.setdefault(state[i], []).append(len(hs))
        if gt.kind is GateKind.CNOT:
            state[i] ^= state[gt.control - 1]
        elif gt.kind in (GateKind.X, GateKind.Y):
            state[i] ^= CONST_BIT
        elif gt.kind is GateKind.H:
            before, fresh = tuple(state), fresh + 1
            state[i] = 1 << fresh
            hs.append((gt.target, before, tuple(state)))
    return touched, hs


def hfree_fold(gates, state, terms=None):
    """Fold H-free ``gates`` from wire ``state``, written apart from the library's extraction.

    Each phase gate adds its coefficient on its wire's parity to ``terms`` (a
    new PhasePolySet when None). Returns the terms and the final wire state.
    """
    terms = PhasePolySet() if terms is None else terms
    state = list(state)
    for gt in gates:
        assert gt.kind is not GateKind.H
        i = gt.target - 1
        if gt.kind in PHASE_COEFF:
            terms.add(PHASE_COEFF[gt.kind], state[i])
        if gt.kind is GateKind.CNOT:
            state[i] ^= state[gt.control - 1]
        elif gt.kind in (GateKind.X, GateKind.Y):
            state[i] ^= CONST_BIT
    return terms, tuple(state)


def hfree_runs(c):
    """The H-free gate runs of ``c`` between its H gates, as gate tuples."""
    runs = [[]]
    for gt in c.gates:
        if gt.kind is GateKind.H:
            runs.append([])
        else:
            runs[-1].append(gt)
    return [tuple(run) for run in runs]


def run_starts(c):
    """The wire state at the start of each H-free run, from :func:`reference_fold`."""
    return [identity_state(c.num_qubits)] + [q_out for _, _, q_out in reference_fold(c)[1]]


def circuit_terms(c):
    """The whole circuit's phase polynomial: each run folded by :func:`hfree_fold` from its start state."""
    terms = PhasePolySet()
    for run, start in zip(hfree_runs(c), run_starts(c)):
        terms, _ = hfree_fold(run, start, terms)
    return terms


def partition_fold(c, partition):
    """Each H-free run's terms in ``partition``, over the wires at the run's start, written apart from the library.

    ``"own"``: the terms of the run's own phase gates, folded by :func:`hfree_fold`
    from the identity. ``"first"``: every coefficient on a parity goes to the
    first run whose phase gates touch it (:func:`reference_fold`'s ``touched``),
    at the key the parity had at that first touch, even after it cancels to 0.
    """
    n = c.num_qubits
    runs = hfree_runs(c)
    if partition == "own":
        return [hfree_fold(run, identity_state(n))[0] for run in runs]
    touched = reference_fold(c)[0]
    out = [PhasePolySet() for _ in runs]
    keys = {}  # parity -> its key at its first touch
    for run, start in zip(runs, run_starts(c)):
        for k, gt in enumerate(run):
            if gt.kind in PHASE_COEFF:
                # the parity and the key are the wire's states after the run's gates before it
                parity = hfree_fold(run[:k], start)[1][gt.target - 1]
                key = keys.setdefault(parity, hfree_fold(run[:k], identity_state(n))[1][gt.target - 1])
                out[touched[parity][0]].add(PHASE_COEFF[gt.kind], key)
    return out


def traced(synth, *args, events=None):
    """Call ``synth(*args)`` with a trace sink; return its result and the events it received.

    Each event is a namespace holding ``kind`` and the fields passed with it,
    appended to ``events`` (a new list when None) as it arrives, so a call that
    raises still leaves the events it emitted there.
    """
    events = [] if events is None else events
    result = synth(*args, trace=lambda kind, **fields: events.append(SimpleNamespace(kind=kind, **fields)))
    return result, events


def _step_cnots(event) -> int:
    """The CNOTs a trace event reports: a ``"steiner"`` expansion's, or a ``"column"``'s three parts."""
    if event.kind == "steiner":
        return len(event.cnots)
    return len(event.diag) + len(event.tree) + len(event.corrections)


def assert_budget_contract(synth, args, cnots) -> None:
    """Check ``synth(*args, budget=b)`` at and beside every step of the unbudgeted run.

    ``cnots(result)`` counts a result's CNOTs. A step is a trace event that
    reports CNOTs; with c(k) the count after step k, every budget from
    c(k - 1) + 1 to c(k) raises OverBudget after emitting exactly the events
    before step k. The raise can move only at a step, so budgets c(k - 1) + 1,
    c(k) and one seeded budget between them stand for that range. Budget 0
    raises before any event, and one more than the count returns the
    unbudgeted result, with the same trace events.
    """
    want, want_events = traced(synth, *args)
    count = cnots(want)
    rng = random.Random(count)
    emitted = {0: 0}  # budget -> the events emitted before it raises
    total = 0
    for k, event in enumerate(want_events):
        if step := _step_cnots(event):
            low, total = total + 1, total + step
            emitted[low] = emitted[total] = k
            if total - low > 1:
                emitted[rng.randint(low + 1, total - 1)] = k
    assert total == count
    for budget, k in emitted.items():
        events = []
        with pytest.raises(OverBudget):
            traced(partial(synth, budget=budget), *args, events=events)
        assert events == want_events[:k], budget
    assert traced(partial(synth, budget=count + 1), *args) == (want, want_events)


@pytest.fixture(scope="session")
def grid2x3():
    return preset_graph("appendix-2x3")


@pytest.fixture()
def appendix_transform():
    return AugmentedTransform.from_bits(APPENDIX_A_BITS)


@pytest.fixture()
def appendix_parity_matrix():
    return ParityMatrix.from_terms(APPENDIX_PHASE_TERMS)
