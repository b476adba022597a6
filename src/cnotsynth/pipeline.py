"""End-to-end re-synthesis: SWAP-template baseline and the two slice-and-build passes.

Both optimizing passes cut the circuit at its H gates and share one slice loop
over one extraction of the whole circuit. Each H-free run has two candidates,
and the loop emits the one with fewer CNOTs, the first on a tie:

* the segmented run: the run's own gates with each CNOT routed alone, by
  ROW-OP's passes along the merge path that the synthesizers join two
  terminals by, through the whole graph (``low = 1``), built once per graph
  and ordered pair by :func:`~cnotsynth.linsynth._route`;
* the paper's rebuild: a phase network for the run's terms, then a linear
  restore of the input circuit's own map of the run.

The segmented run's CNOTs are the rebuild's budget. A run with fewer than two
CNOTs is not rebuilt (see :func:`_slice_loop`), and a rebuild stops at the
Steiner expansion of its phase network or the column of its restore that
reaches the budget, before its restore when the phase network alone reaches
it. So no run costs more than its SWAP routing.
The extraction writes every term and every run's map over the wires at the
run's start, so each rebuild solves once, for its restore.

The two passes differ only in which terms a slice takes. The first takes the
terms the slice's own phase gates make. The second takes the terms whose
parity a phase gate first touches in the slice (a wire state there, so
computable; the paper's CNOT-OPT-B waits for the last computable slice, where
it seldom is one). Either way, the segmented run places each merged term at
the first phase gate on its parity in the slice, as phase folding does.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import astuple, dataclass

from .circuit import Circuit, Gate, GateKind, cnot, cnot_count
from .linalg import AugmentedTransform, OverBudget, ParityMatrix, f2_solve
from .linsynth import _route, linear_tf_synth
from .phasepoly import Slice, extract_sliced
from .phasesynth import phase_gates, phase_nw_synth
from .topology import ConnectivityGraph, merge_path


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


def _chain(path: list[int]) -> list[Gate]:
    """CNOT(path[0], path[-1]) by SWAP chains along ``path``, a shortest path between them.

    At graph distance l it costs 6(l-1)+1 CNOTs: l-1 SWAPs walk the control
    next to the target, the CNOT fires, and the same SWAPs walk it back.
    """
    swaps = list(zip(path, path[1:]))[:-1]  # move control along the path
    out: list[Gate] = []
    for a, b in swaps:
        out += [cnot(a, b), cnot(b, a), cnot(a, b)]
    out.append(cnot(path[-2], path[-1]))
    for a, b in reversed(swaps):
        out += [cnot(a, b), cnot(b, a), cnot(a, b)]
    return out


def swap_template(c: Circuit, g: ConnectivityGraph) -> Circuit:
    """Route each distant CNOT by the SWAP chains of :func:`_chain` along its merge path."""
    out: list[Gate] = []
    cx = GateKind.CNOT  # bound once: each GateKind.<name> costs a lookup
    for gt in _pad(c, g.num_vertices).gates:
        if gt.kind is not cx or g.has_edge(gt.control, gt.target):
            out.append(gt)
        else:
            out += _chain(merge_path(g, gt.control, gt.target))
    return Circuit.trusted(g.num_vertices, tuple(out))


def _rebuild(
    pm: ParityMatrix, target: tuple[int, ...], g: ConnectivityGraph, budget: float = math.inf
) -> tuple[tuple[Gate, ...], int] | None:
    """Phase network for ``pm``, then the linear restore that leaves the wires in ``target``.

    Returns the block and its CNOTs. ``pm`` and ``target`` are both written
    over the wire states at the start of the slice. None as soon as the block's
    CNOTs reach ``budget``: the phase network stops at the Steiner expansion
    that reaches it, and the restore, given what the network left of it, at the
    column that does. So the restore is never entered when the phase network
    alone reaches the budget.
    """
    try:
        c_ph, a_ph = phase_nw_synth(pm, g, budget=budget)
        spent = cnot_count(c_ph)
        # the network's wires stay invertible (each path's top gains its leaf), so every target solves
        restore = AugmentedTransform(g.num_vertices, f2_solve(a_ph.rows, list(target)))
        c_lin = linear_tf_synth(restore, g, budget=budget - spent)
    except OverBudget:
        return None
    return c_ph.gates + c_lin.gates, spent + cnot_count(c_lin)


def _segmented(s: Slice, g: ConnectivityGraph) -> tuple[list[Gate], int, int]:
    """The run with each CNOT routed alone and each of ``s.terms`` placed at its first phase gate.

    Each key of ``s.terms`` is first touched in this run, and at ``s.first_at[key]``
    its wire holds exactly that key, so its merged coefficient lands there by
    :func:`~cnotsynth.phasesynth.phase_gates`. Every other phase gate goes, its
    coefficient merged into a term placed here or in an earlier run; a Y still
    flips its wire, as an X after them, or stays itself (Z then X, up to a
    global phase) when the coefficient placed at it is 4.
    Returns the gates, their CNOTs, and how many CNOTs the run itself holds.
    """
    at = {s.first_at[key]: coeff for coeff, key in s.terms.terms()}
    cx, x, y = GateKind.CNOT, GateKind.X, GateKind.Y  # bound once: each GateKind.<name> costs a lookup
    out: list[Gate] = []
    cost = cnots = 0
    for j, gt in enumerate(s.gates):
        kind = gt.kind
        if kind is cx:
            cnots += 1
            route = _route(g, gt.control, gt.target)[1]
            out += route
            cost += len(route)
        elif kind is x or (kind is y and at.get(j) == 4):
            out.append(gt)
        else:
            x_gate, placed = phase_gates(gt.target, at.get(j, 0))
            out += placed
            if kind is y:
                out.append(x_gate)
    return out, cost, cnots


def _slice_loop(c: Circuit, g: ConnectivityGraph, partition: str) -> tuple[Circuit, ResynthesisReport]:
    """Emit each H-free run as the cheaper of its segmented run and its rebuild, then its H.

    ``partition`` names the terms the extraction gives each run's
    :class:`Slice`, ``"own"`` or ``"first"``; both candidates realize them,
    the segmented run by :func:`_segmented`. The rebuild's terms are
    written over the wires at the run's start, and its restore target is the
    input circuit's own map of the run over the same wires, so every per-run
    linear transformation matches the original. The terms enter the phase
    network as they are, and pass its checks: each run's set is merged mod 8
    with no zero coefficient, as :class:`ParityMatrix` checks, and its parities
    are rows of the run's own invertible map, so none has a zero variable mask
    or reaches past x_n.

    A run with fewer than two CNOTs is emitted segmented: no rebuild of a lone
    CNOT beats its route, proven in two of three cases and searched in the third
    (README). Correctness does not rest on it; a segmented run is always valid.
    """
    t0 = time.perf_counter()
    n = g.num_vertices
    out: list[Gate] = []
    per_slice: list[int] = []
    for s in extract_sliced(_pad(c, n), partition):
        block, cost, cnots = _segmented(s, g)
        if cnots > 1 and (rebuilt := _rebuild(ParityMatrix(s.terms.terms()), s.map, g, cost)) is not None:
            block, cost = rebuilt
        per_slice.append(cost)
        out += block
        if s.h is not None:
            out.append(Gate(GateKind.H, s.h))
    report = ResynthesisReport.build(cnot_count(c), sum(per_slice), per_slice, time.perf_counter() - t0)
    return Circuit.trusted(n, tuple(out)), report


def cnot_opt_a(c: Circuit, g: ConnectivityGraph) -> tuple[Circuit, ResynthesisReport]:
    """Slice at H gates; emit each run as routed or as rebuilt from its own terms, the cheaper.

    The routed run replaces each CNOT by :func:`~cnotsynth.linsynth._route` and places each merged
    term at its first phase gate; the rebuild is the paper's phase network and
    linear restore for the run's own (P, Q) summary.
    """
    return _slice_loop(c, g, "own")


def cnot_opt_b(c: Circuit, g: ConnectivityGraph) -> tuple[Circuit, ResynthesisReport]:
    """Partition the whole circuit's phase polynomial across its H gates.

    Each slice takes the terms whose parity first appears in it. It emits the
    cheaper of two blocks: its gates with each CNOT routed alone and each term
    placed at the first phase gate on its parity, or the phase network for its
    terms followed by the restore of the input circuit's qubit states at its end.
    """
    return _slice_loop(c, g, "first")


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


#: (header, format spec) of each TSV column, in BenchRow field order
_BENCH_TABLE = (
    ("architecture", ""),
    ("qubits", ""),
    ("initial-cnots", ""),
    ("swap-overhead%", ".2f"),
    ("opt-a-overhead%", ".2f"),
    ("opt-a-time-s", ".3f"),
    ("opt-b-overhead%", ".2f"),
    ("opt-b-time-s", ".3f"),
)
BENCH_COLUMNS = tuple(header for header, _ in _BENCH_TABLE)


def _bench_one(job: tuple[ConnectivityGraph, Circuit]) -> tuple[float, ...]:
    """One circuit's numeric BenchRow fields: swap's overhead, then opt-a's and opt-b's overhead and seconds."""
    g, circ = job
    (_, swap), (_, a), (_, b) = (resynthesize(circ, g, algo) for algo in ("swap", "opt-a", "opt-b"))
    return swap.overhead_pct, a.overhead_pct, a.seconds, b.overhead_pct, b.seconds


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
    but nothing else. Every count is at least 1, so every overhead is a number.
    """
    for name, value, least in (("num_qubits", num_qubits, 2), ("trials", trials, 1), ("workers", workers, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if any(count < 1 for count in counts):
        raise ValueError(f"CNOT counts must be at least 1, got {counts}")
    cells = [(name, count) for name in graphs for count in counts]
    jobs = []
    for name, count in cells:
        # str seeds hash via sha512, stable across processes (tuple seeds are not)
        rng = random.Random(f"{seed}:{name}:{count}")
        jobs += [(graphs[name], random_circuit(num_qubits, count, rng)) for _ in range(trials)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            outcomes = list(pool.map(_bench_one, jobs))
    else:
        outcomes = [_bench_one(job) for job in jobs]
    chunks = (outcomes[k * trials : (k + 1) * trials] for k in range(len(cells)))
    return [
        BenchRow(name, num_qubits, count, *(sum(col) / len(col) for col in zip(*chunk)))
        for (name, count), chunk in zip(cells, chunks)
    ]


def bench_tsv(rows: list[BenchRow]) -> str:
    lines = [BENCH_COLUMNS] + [[format(v, spec) for v, (_, spec) in zip(astuple(r), _BENCH_TABLE)] for r in rows]
    return "".join("\t".join(line) + "\n" for line in lines)
