"""Seeded inputs of the four benchmark workloads.

Each workload is rebuilt from ``(name, seed)`` alone; the library only ever sees
the generated circuits and graphs. Why each workload exists, and which layer it
loads, is written down in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cnotsynth.circuit import Circuit, Gate, GateKind, cnot
from cnotsynth.pipeline import random_circuit, resynthesize
from cnotsynth.topology import ConnectivityGraph, grid_graph, preset_graph

PIPELINES = ("swap", "opt-a", "opt-b")

# presets-9q: the paper's experiment, 9-qubit circuits on each preset graph.
PRESETS = ("9q-square", "16q-square", "rigetti-16q-aspen", "ibm-qx5", "ibm-q20-tokyo")
PRESET_CNOTS = (5, 10, 20, 30)
PRESET_PER_CELL = 10

# grid-25q: the largest size at which one opt-b pass still fits a run. With so few
# circuits, a fixed gate mix (random_circuit's expected one) keeps the seed from
# moving the totals; random gate counts moved opt-b's time by 13% per circuit.
GRID_SIDE = 5
GRID_CNOTS = 150
GRID_CIRCUITS = 5

# h-sparse-16q: long H-free slices, one H per 100 gates.
HSPARSE_GRAPHS = ("16q-square", "ibm-q20-tokyo")
HSPARSE_QUBITS = 16
HSPARSE_CNOTS = 200
HSPARSE_GATES_PER_H = 100
HSPARSE_PER_GRAPH = 15

# verify-10q: the dense oracle at 9 and 10 qubits, where a pair takes well under a second.
# A 10-qubit pair costs about six 9-qubit ones, so most circuits are 9-qubit. The mix
# keeps random_circuit's one H per CNOT but few phase gates: more CNOTs per oracle
# second make the CNOT overhead vary less between seeds.
VERIFY_GRAPHS = (("9q-square", 12), ("grid-2x5", 2))  # (graph, circuits)
VERIFY_MIX = {GateKind.CNOT: 20, GateKind.H: 20} | {
    k: 1 for k in GateKind if k not in (GateKind.CNOT, GateKind.H)
}

# Other workloads time the dense oracle on a probe so that every workload reports
# the verify metrics: 9-qubit circuits, each compared with itself and with a copy
# missing one gate. The probe is not compiled.
PROBE_QUBITS = 9
PROBE_PER_KIND = 8
PROBE_CIRCUITS = 8


@dataclass
class Workload:
    graphs: dict[str, ConnectivityGraph]
    jobs: list[tuple[str, Circuit]]  # (graph name, input), compiled by every pipeline
    probe: list[Circuit]  # checked by the dense oracle in place of the jobs' outputs; empty on verify-10q


def shuffled_circuit(num_qubits: int, counts: dict[GateKind, int], rng: random.Random) -> Circuit:
    """Exactly ``counts[kind]`` gates of each kind, in random order on random qubits.

    Fixing the gate mix leaves only placement and order to the seed, so the
    oracle's cost, which grows with the gate count, varies less between seeds.
    """
    kinds = [kind for kind, k in counts.items() for _ in range(k)]
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind is GateKind.CNOT:
            control, target = rng.sample(range(1, num_qubits + 1), 2)
            gates.append(cnot(control, target))
        else:
            gates.append(Gate(kind, rng.randint(1, num_qubits)))
    return Circuit(num_qubits, tuple(gates))


def _uniform_mix(per_kind: int) -> dict[GateKind, int]:
    # the expected mix of random_circuit, which draws the nine kinds uniformly
    return dict.fromkeys(GateKind, per_kind)


def _h_sparse_mix() -> dict[GateKind, int]:
    counts = dict.fromkeys((k for k in GateKind if k is not GateKind.H), HSPARSE_CNOTS)
    counts[GateKind.H] = sum(counts.values()) // HSPARSE_GATES_PER_H
    return counts


def _rng(seed: int, *parts) -> random.Random:
    # str seeds hash through sha512 and are stable across processes
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _presets(seed: int) -> Workload:
    graphs = {name: preset_graph(name) for name in PRESETS}
    jobs = []
    for name in PRESETS:
        for k in PRESET_CNOTS:
            rng = _rng(seed, "presets-9q", name, k)
            jobs += [(name, random_circuit(9, k, rng)) for _ in range(PRESET_PER_CELL)]
    return Workload(graphs, jobs, _probe(seed))


def _grid(seed: int) -> Workload:
    name = f"grid-{GRID_SIDE}x{GRID_SIDE}"
    graphs = {name: grid_graph(GRID_SIDE, GRID_SIDE)}
    rng = _rng(seed, "grid-25q")
    n = GRID_SIDE * GRID_SIDE
    jobs = [(name, shuffled_circuit(n, _uniform_mix(GRID_CNOTS), rng)) for _ in range(GRID_CIRCUITS)]
    return Workload(graphs, jobs, _probe(seed))


def _h_sparse(seed: int) -> Workload:
    graphs = {name: preset_graph(name) for name in HSPARSE_GRAPHS}
    jobs = []
    for name in HSPARSE_GRAPHS:
        rng = _rng(seed, "h-sparse-16q", name)
        jobs += [(name, shuffled_circuit(HSPARSE_QUBITS, _h_sparse_mix(), rng)) for _ in range(HSPARSE_PER_GRAPH)]
    return Workload(graphs, jobs, _probe(seed))


def _verify(seed: int) -> Workload:
    graphs = {"9q-square": preset_graph("9q-square"), "grid-2x5": grid_graph(2, 5)}
    jobs = []
    for name, count in VERIFY_GRAPHS:
        rng = _rng(seed, "verify-10q", name)
        n = graphs[name].num_vertices
        jobs += [(name, shuffled_circuit(n, VERIFY_MIX, rng)) for _ in range(count)]
    return Workload(graphs, jobs, [])


def _probe(seed: int) -> list[Circuit]:
    rng = _rng(seed, "probe")
    return [shuffled_circuit(PROBE_QUBITS, _uniform_mix(PROBE_PER_KIND), rng) for _ in range(PROBE_CIRCUITS)]


BUILDERS = {
    "presets-9q": _presets,
    "grid-25q": _grid,
    "h-sparse-16q": _h_sparse,
    "verify-10q": _verify,
}


def build(name: str, seed: int) -> Workload:
    """Fresh graphs and circuits for one workload, with the graphs' lazy caches filled."""
    w = BUILDERS[name](seed)
    warm = Circuit(2, (cnot(1, 2), Gate(GateKind.T, 2), Gate(GateKind.H, 1), cnot(2, 1)))
    for g in w.graphs.values():
        for algo in PIPELINES:
            resynthesize(warm, g, algo)
    return w


def input_properties(w: Workload) -> dict:
    """The input properties the layers' costs depend on."""
    gates = [g for _, c in w.jobs for g in c.gates]
    h = sum(1 for g in gates if g.kind is GateKind.H)
    cx = sum(1 for g in gates if g.kind is GateKind.CNOT)
    return {
        "circuits": len(w.jobs),
        "qubits": sorted({c.num_qubits for _, c in w.jobs}),
        "graph_vertices": sorted({w.graphs[name].num_vertices for name, _ in w.jobs}),
        "input_cnots": cx,
        "h_per_cnot": h / cx,
        "mean_hfree_slice_gates": (len(gates) - h) / (h + len(w.jobs)),
    }
