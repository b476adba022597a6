"""End-to-end re-synthesis: SWAP-template baseline and the two slice-and-build passes.

Both optimizing passes cut the circuit at its H gates and share one slice loop:
one extraction of the whole circuit, then per slice a phase network for its
terms and a linear restore of the input circuit's own map of the slice, then
the H. They differ only in which terms a slice synthesizes. The first takes
the terms the slice's own phase gates make. The second takes the terms whose
parity a phase gate first touches in the slice (a wire state there, so
computable; the paper's CNOT-OPT-B waits for the last computable slice, where
it seldom is one). The extraction writes every term and every slice map over
the wires at the slice start, so each slice solves once, for the mapping
transform of its linear restore.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind, cnot, cnot_count
from .linalg import AugmentedTransform, ParityMatrix, f2_solve
from .linsynth import linear_tf_synth
from .phasepoly import extract_sliced
from .phasesynth import phase_nw_synth
from .topology import ConnectivityGraph, shortest_path


@dataclass(frozen=True)
class ResynthesisReport:
    input_cnots: int
    output_cnots: int
    overhead_pct: float | None  # (output - input) / input * 100; None when input is 0
    per_slice_cnots: tuple[int, ...]
    seconds: float

    @staticmethod
    def build(input_cnots, output_cnots, per_slice, seconds) -> "ResynthesisReport":
        if input_cnots:
            overhead = (output_cnots - input_cnots) / input_cnots * 100.0
        else:
            overhead = 0.0 if output_cnots == 0 else None
        return ResynthesisReport(input_cnots, output_cnots, overhead, tuple(per_slice), seconds)

    def as_dict(self) -> dict:
        return {
            "input_cnots": self.input_cnots,
            "output_cnots": self.output_cnots,
            "overhead_pct": self.overhead_pct,
            "per_slice_cnots": list(self.per_slice_cnots),
            "seconds": self.seconds,
        }


def _pad(c: Circuit, n: int) -> Circuit:
    if c.num_qubits > n:
        raise ValueError(f"circuit has {c.num_qubits} qubits but the graph offers {n}")
    return Circuit.trusted(n, c.gates)


def swap_template(c: Circuit, g: ConnectivityGraph) -> Circuit:
    """Route each distant CNOT with SWAP chains along the shortest path.

    A CNOT at graph distance l costs 6(l-1)+1 CNOTs: l-1 SWAPs walk the control
    next to the target, the CNOT fires, and the same SWAPs walk it back.
    """
    out: list[Gate] = []
    full = frozenset(g.vertices)
    for gt in _pad(c, g.num_vertices).gates:
        if gt.kind is not GateKind.CNOT or g.has_edge(gt.control, gt.target):
            out.append(gt)
            continue
        path = shortest_path(g, gt.control, gt.target, full)
        swaps = list(zip(path, path[1:]))[:-1]  # move control along the path
        for a, b in swaps:
            out += [cnot(a, b), cnot(b, a), cnot(a, b)]
        out.append(cnot(path[-2], gt.target))
        for a, b in reversed(swaps):
            out += [cnot(a, b), cnot(b, a), cnot(a, b)]
    return Circuit.trusted(g.num_vertices, tuple(out))


def _mapping_transform(current: tuple[int, ...], target: tuple[int, ...]) -> AugmentedTransform:
    """The transform that a trailing circuit must realize to turn ``current`` into ``target``."""
    rows = f2_solve(list(current), list(target))
    if None in rows:
        raise ValueError("target state is outside the span of the current state")
    return AugmentedTransform(len(current), rows)


def _rebuild(pm: ParityMatrix, target: tuple[int, ...], g: ConnectivityGraph) -> tuple[Gate, ...]:
    """Phase network for ``pm``, then the linear restore that leaves the wires in ``target``.

    ``pm`` and ``target`` are both written over the wire states at the start of the slice.
    """
    c_ph, a_ph = phase_nw_synth(pm, g)
    c_lin = linear_tf_synth(_mapping_transform(tuple(a_ph.rows), target), g)
    return c_ph.gates + c_lin.gates


def _slice_loop(c: Circuit, g: ConnectivityGraph, partition) -> tuple[Circuit, ResynthesisReport]:
    """Rebuild every slice from its terms in ``partition(extraction)``, then emit its H.

    Each slice's terms are written over the wires at its start, and its restore
    target is the input circuit's own map of the slice over the same wires, so
    every per-slice linear transformation matches the original.

    The terms enter the phase network as they are, unchecked, as
    ``Circuit.trusted`` takes the program's own gates: each slice set is merged
    mod 8 with no zero coefficient, and its parities are rows of the slice's
    own invertible map, so none has a zero variable mask or reaches past x_n.
    """
    t0 = time.perf_counter()
    n = g.num_vertices
    ext = extract_sliced(_pad(c, n))
    out: list[Gate] = []
    per_slice: list[int] = []
    for terms, target, h in zip(partition(ext), ext.slice_maps, ext.records + (None,)):
        block = _rebuild(ParityMatrix(terms.terms()), target, g)
        per_slice.append(cnot_count(block))
        out += block
        if h is not None:
            out.append(Gate(GateKind.H, h.pos))
    result = Circuit.trusted(n, tuple(out))
    report = ResynthesisReport.build(
        cnot_count(c), cnot_count(result), per_slice, time.perf_counter() - t0
    )
    return result, report


def cnot_opt_a(c: Circuit, g: ConnectivityGraph) -> tuple[Circuit, ResynthesisReport]:
    """Slice at H gates and re-synthesize each slice from its own (P, Q) summary."""
    return _slice_loop(c, g, lambda ext: ext.own_terms)


def cnot_opt_b(c: Circuit, g: ConnectivityGraph) -> tuple[Circuit, ResynthesisReport]:
    """Partition the whole circuit's phase polynomial across its H gates.

    Each slice synthesizes the terms whose parity first appears in it, then
    restores the input circuit's qubit states at its end.
    """
    return _slice_loop(c, g, lambda ext: ext.slice_terms)


def resynthesize(c: Circuit, g: ConnectivityGraph, algo: str) -> tuple[Circuit, ResynthesisReport]:
    """Run one of the three pipelines: ``swap``, ``opt-a`` or ``opt-b``."""
    if algo == "swap":
        t0 = time.perf_counter()
        out = swap_template(c, g)
        report = ResynthesisReport.build(
            cnot_count(c), cnot_count(out), (), time.perf_counter() - t0
        )
        return out, report
    if algo == "opt-a":
        return cnot_opt_a(c, g)
    if algo == "opt-b":
        return cnot_opt_b(c, g)
    raise ValueError(f"unknown algorithm {algo!r}; expected swap, opt-a or opt-b")


_KINDS = tuple(GateKind)


def random_circuit(num_qubits: int, cnots: int, rng: random.Random) -> Circuit:
    """Gate kinds drawn uniformly from the universal set until the CNOT quota is met."""
    gates: list[Gate] = []
    placed = 0
    while placed < cnots:
        kind = _KINDS[rng.randrange(len(_KINDS))]
        if kind is GateKind.CNOT:
            control, target = rng.sample(range(1, num_qubits + 1), 2)
            gates.append(cnot(control, target))
            placed += 1
        else:
            gates.append(Gate(kind, rng.randint(1, num_qubits)))
    return Circuit(num_qubits, tuple(gates))


@dataclass(frozen=True)
class BenchRow:
    architecture: str
    num_qubits: int
    initial_count: int
    swap_overhead: float
    opta_overhead: float
    opta_seconds: float
    optb_overhead: float
    optb_seconds: float


BENCH_COLUMNS = (
    "architecture",
    "qubits",
    "initial-cnots",
    "swap-overhead%",
    "opt-a-overhead%",
    "opt-a-time-s",
    "opt-b-overhead%",
    "opt-b-time-s",
)


def _bench_one(job: tuple[ConnectivityGraph, Circuit]) -> dict:
    g, circ = job
    out = {}
    for algo in ("swap", "opt-a", "opt-b"):
        _, report = resynthesize(circ, g, algo)
        out[algo] = (report.overhead_pct, report.seconds)
    return out


def bench_random(
    graphs: dict[str, ConnectivityGraph],
    num_qubits: int,
    counts: list[int],
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[BenchRow]:
    """Random-circuit benchmark grid: one row per (architecture, CNOT count).

    Overheads and times are means over ``trials`` seeded circuits. Circuits are
    generated up front from the seed, so fanning the per-circuit work over a
    bounded process pool (``workers`` > 1, at most one per CPU) changes timings
    but nothing else.
    """
    for name, value, least in (("num_qubits", num_qubits, 2), ("trials", trials, 1), ("workers", workers, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if any(count < 1 for count in counts):
        raise ValueError(f"CNOT counts must be at least 1, got {counts}")
    cells = []
    for name, g in graphs.items():
        for count in counts:
            # str seeds hash via sha512, stable across processes (tuple seeds are not)
            rng = random.Random(f"{seed}:{name}:{count}")
            circuits = [random_circuit(num_qubits, count, rng) for _ in range(trials)]
            cells.append((name, g, count, circuits))

    jobs = [(g, circ) for _, g, _, circuits in cells for circ in circuits]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            outcomes = list(pool.map(_bench_one, jobs))
    else:
        outcomes = [_bench_one(job) for job in jobs]

    rows = []
    cursor = 0
    for name, g, count, circuits in cells:
        chunk = outcomes[cursor : cursor + len(circuits)]
        cursor += len(circuits)
        rows.append(
            BenchRow(
                architecture=name,
                num_qubits=num_qubits,
                initial_count=count,
                swap_overhead=_mean([r["swap"][0] for r in chunk]),
                opta_overhead=_mean([r["opt-a"][0] for r in chunk]),
                opta_seconds=_mean([r["opt-a"][1] for r in chunk]),
                optb_overhead=_mean([r["opt-b"][0] for r in chunk]),
                optb_seconds=_mean([r["opt-b"][1] for r in chunk]),
            )
        )
    return rows


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return math.nan if not values else sum(values) / len(values)


def bench_tsv(rows: list[BenchRow]) -> str:
    lines = ["\t".join(BENCH_COLUMNS)]
    for r in rows:
        lines.append(
            "\t".join(
                [
                    r.architecture,
                    str(r.num_qubits),
                    str(r.initial_count),
                    f"{r.swap_overhead:.2f}",
                    f"{r.opta_overhead:.2f}",
                    f"{r.opta_seconds:.3f}",
                    f"{r.optb_overhead:.2f}",
                    f"{r.optb_seconds:.3f}",
                ]
            )
        )
    return "\n".join(lines) + "\n"
