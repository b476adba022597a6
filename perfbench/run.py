"""Benchmark of cnotsynth: compile time and CNOT overhead of swap / opt-a / opt-b.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload presets-9q --seed 1 --seconds 25 --trace 0

One process builds the seeded workload, compiles every circuit with every
pipeline through ``cnotsynth.pipeline.resynthesize`` and times the dense
oracle (``cnotsynth.verify``) on its pairs. It repeats compile rounds until
``--seconds`` is used up and reports medians. Compile and set-up times are
rescaled to a fixed host speed (see ``clock``). Outside the timed calls every output is checked:
CNOTs on graph edges, path-sum equivalence to its input (``pathsum``) and
equality with the first round's output. Each oracle verdict is compared with
the known answer, and so is the path-sum verdict on the same pair.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes one untraced
and one traced pass over the same inputs, prints the per-layer metrics and
writes the spans to ``.perfbench-out/``. The last line of stdout is the
result: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds input properties, sample counts, raw wall times and output digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("presets-9q", "grid-25q", "h-sparse-16q", "verify-10q")
SETUP_REPEATS = 5
MAX_ROUNDS = 20
CHEAP_SHARE = 0.04  # a pipeline may go past the deadline while its rounds stay under this share of the run


def _import_library() -> None:
    """Put the checkout's own ``src`` first on the path; fail when it is missing."""
    if not (ROOT / "src" / "cnotsynth" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cnotsynth sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))


class Measurement:
    """Timed compiles and oracle verdicts of one workload instance, and their checks."""

    def __init__(self, name: str, seed: int, sw):
        from workloads import PIPELINES, build

        self.name, self.seed, self.sw = name, seed, sw
        for _ in range(SETUP_REPEATS):
            self.w = self.sw.call(("setup",), build, name, seed)
        self.pipelines = PIPELINES
        self.attempted = 0
        self.failed = 0
        self.rounds = dict.fromkeys(PIPELINES, 0)
        self.round_raw_s = dict.fromkeys(PIPELINES, 0.0)  # the last round's wall time, for the deadline
        self.oracle_runs = 0
        self.first: dict[str, list] = {a: [None] * len(self.w.jobs) for a in PIPELINES}

    def _fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def compile_round(self, algo: str, tracer=None) -> None:
        """Compile every job with ``algo`` and compare each output with the first round's."""
        from cnotsynth.pipeline import resynthesize

        key = ("compile", algo, self.rounds[algo])
        self.rounds[algo] += 1
        gc.collect()
        t0 = time.perf_counter()
        for i, (gname, c) in enumerate(self.w.jobs):
            self.attempted += 1
            try:
                out, _ = self.sw.call(key, resynthesize, c, self.w.graphs[gname], algo)
            except Exception:  # a failing compile is counted and the run goes on
                traceback.print_exc()
                self._fail(f"{algo} raised on job {i}")
                continue
            if tracer is not None:
                tracer.new_circuit()
            if self.first[algo][i] is None:
                self.first[algo][i] = out
            elif out.gates != self.first[algo][i].gates:
                self._fail(f"{algo} output of job {i} differs from the first round's")
        self.round_raw_s[algo] = time.perf_counter() - t0

    def oracle_pairs(self) -> list[tuple[object, object, bool, str]]:
        """(circuit, equivalent circuit or one with a gate deleted, equivalent?, label).

        Without a probe each output is compared with its input padded to the graph;
        with one, each probe circuit is compared with itself.
        """
        from cnotsynth.circuit import Circuit

        if not self.w.probe:
            sources = [
                (Circuit(out.num_qubits, c.gates), out, f"{algo} output of job {i}")
                for i, (_, c) in enumerate(self.w.jobs)
                for algo in self.pipelines
                if (out := self.first[algo][i]) is not None
            ]
        else:
            sources = [(c, c, f"probe {i}") for i, c in enumerate(self.w.probe)]
        pairs = []
        for k, (a, b, label) in enumerate(sources):
            pairs.append((a, b, True, label))
            # deleting a gate that is not a multiple of the identity always changes the unitary
            at = random.Random(f"{self.seed}:delete:{k}").randrange(len(b.gates))
            cut = Circuit(b.num_qubits, b.gates[:at] + b.gates[at + 1 :])
            pairs.append((a, cut, False, f"{label} without gate {at}"))
        return pairs

    def oracle_phase(self) -> None:
        """Dense verdict on every pair (timed), then the path-sum verdict (untimed)."""
        import cnotsynth.verify as verify
        import pathsum

        pairs = self.oracle_pairs()
        key = ("oracle", self.oracle_runs)
        self.oracle_runs += 1
        gc.collect()
        verdicts = []
        for a, b, _, _ in pairs:
            self.attempted += 1
            verdicts.append(self.sw.call(key, verify.equivalent_up_to_phase, a, b))
        for (a, b, expected, label), dense in zip(pairs, verdicts):
            if dense != expected:
                self._fail(f"dense oracle says {dense} on {label}")
            elif pathsum.equivalent(a, b) != expected:
                self._fail(f"path-sum check says {not expected} on {label}")

    def check_outputs(self) -> None:
        """Wire count, connectivity and path-sum equivalence of every output (untimed)."""
        import pathsum
        from cnotsynth.circuit import Circuit

        for algo in self.pipelines:
            for i, (gname, c) in enumerate(self.w.jobs):
                out = self.first[algo][i]
                if out is None:
                    continue
                g = self.w.graphs[gname]
                if out.num_qubits != g.num_vertices:
                    self._fail(f"{algo} output of job {i} has {out.num_qubits} wires, graph {g.num_vertices}")
                elif pathsum.off_graph_cnots(out, g.edges):
                    self._fail(f"{algo} output of job {i} has CNOTs off the coupling graph")
                elif not pathsum.equivalent(Circuit(out.num_qubits, c.gates), out):
                    self._fail(f"{algo} output of job {i} is not path-sum equivalent to its input")

    def record(self) -> dict:
        """Input properties, and per pipeline the output CNOTs and a sha256 over every output."""
        from cnotsynth.circuit import cnot_count, write_circuit
        from workloads import input_properties

        outs = {}
        for algo in self.pipelines:
            digest = hashlib.sha256()
            for out in self.first[algo]:
                if out is not None:
                    digest.update(write_circuit(out).encode())
            outs[algo] = {
                "output_cnots": sum(cnot_count(out) for out in self.first[algo] if out is not None),
                "sha256": digest.hexdigest(),
            }
        return {"workload": self.name, "seed": self.seed, "properties": input_properties(self.w), "outputs": outs}

    def overhead_pct(self, algo: str) -> float:
        from cnotsynth.circuit import cnot_count

        cin = sum(cnot_count(c) for _, c in self.w.jobs)
        cout = sum(cnot_count(out) for out in self.first[algo] if out is not None)
        return (cout - cin) / cin * 100.0


# Python-bound calls slow down with the host's speed much as the reference loop
# does (see clock), so they are reported scaled. The oracle's numpy work slowed
# far less: scaling it by the loop spread its times 0.16 between runs against
# 0.05 raw, so it is reported raw.
SCALED = ("setup", "compile")


def _group(intervals) -> tuple[dict, dict]:
    """Raw and reported seconds of the timed calls, grouped by key."""
    raw, reported = defaultdict(list), defaultdict(list)
    for key, r, s in intervals:
        raw[key].append(r)
        reported[key].append(s if key[0] in SCALED else r)
    return raw, reported


def _p90(values: list[float]) -> float:
    # the inclusive method stays inside the samples, which matters for the few-circuit workloads
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def run_timed(m: Measurement, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: a first round of every pipeline and the oracle phase, then
    more compile rounds (least-timed pipeline first) while they fit in ``seconds``,
    and for a cheap pipeline while its rounds stay under ``CHEAP_SHARE`` of it.

    A probe's oracle phase lasts about a second, shorter than the host's slow
    spells, so it runs after each pipeline's first round and reports the median
    pass; alone it spread 0.19 between runs.
    """
    deadline = time.perf_counter() + seconds
    for algo in m.pipelines:
        m.compile_round(algo)
        if m.w.probe:
            m.oracle_phase()
    if not m.w.probe:
        m.oracle_phase()
    while True:
        now = time.perf_counter()
        fits = [
            a
            for a in m.pipelines
            if m.rounds[a] < MAX_ROUNDS
            and (now + m.round_raw_s[a] <= deadline or (m.rounds[a] + 1) * m.round_raw_s[a] <= seconds * CHEAP_SHARE)
        ]
        if not fits:
            break
        m.compile_round(min(fits, key=lambda a: m.rounds[a] * m.round_raw_s[a]))
    m.check_outputs()

    raw, reported = _group(m.sw.intervals())
    metrics = {"setup_s": (statistics.median(reported[("setup",)]), "s")}
    detail = {"raw_wall_s": {}, "samples": {}}
    for algo in m.pipelines:
        keys = [("compile", algo, r) for r in range(m.rounds[algo])]
        metrics[f"{algo}.wall_s"] = (statistics.median(sum(reported[k]) for k in keys), "s")
        detail["raw_wall_s"][algo] = statistics.median(sum(raw[k]) for k in keys)
        detail["samples"][algo] = {"circuits": len(m.w.jobs), "rounds": m.rounds[algo]}
    for algo in ("opt-a", "opt-b"):
        ms = [s * 1000.0 for r in range(m.rounds[algo]) for s in reported[("compile", algo, r)]]
        p90 = _p90(ms)
        metrics[f"{algo}.circuit_ms.p50"] = (statistics.median(ms), "ms")
        metrics[f"{algo}.circuit_ms.p90"] = (p90, "ms")
        detail["samples"][algo].update(samples=len(ms), beyond_p90=sum(1 for v in ms if v > p90))
    for algo in m.pipelines:
        metrics[f"{algo}.cnot_overhead_pct"] = (m.overhead_pct(algo), "%")
    passes = [reported[("oracle", k)] for k in range(m.oracle_runs)]
    metrics["verify.wall_s"] = (statistics.median(sum(p) for p in passes), "s")
    metrics["verify.pair_ms.p50"] = (statistics.median(t for p in passes for t in p) * 1000.0, "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["passed_share"] = ((m.attempted - m.failed) / m.attempted, "share")
    detail["raw_wall_s"]["verify"] = statistics.median(sum(raw[("oracle", k)]) for k in range(m.oracle_runs))
    detail["raw_wall_s"]["setup"] = statistics.median(raw[("setup",)])
    detail["samples"]["oracle"] = {"passes": m.oracle_runs, "pairs": len(passes[0])}
    detail["reference_loop_ms"] = m.sw.median_tick_s() * 1000.0
    return metrics, detail


def run_traced(m: Measurement) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced and one traced pass over the same inputs."""
    from tracing import Tracer

    def one_pass(tracer=None):
        for algo in m.pipelines:
            m.compile_round(algo, tracer)
        m.oracle_phase()

    one_pass()
    tracer = Tracer()
    with tracer.installed():
        one_pass(tracer)
    m.check_outputs()

    _, reported = _group(m.sw.intervals())
    plain_s, traced_s = (
        sum(sum(reported[("compile", a, p)]) for a in m.pipelines) + sum(reported[("oracle", p)]) for p in (0, 1)
    )
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = ((traced_s - plain_s) / plain_s * 100.0, "%")
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{m.name}-seed{m.seed}.npz"
    tracer.save(spans)
    return metrics, {"spans": len(tracer.name), "spans_file": str(spans.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_library()
    from clock import Stopwatch

    with Stopwatch() as sw:
        m = Measurement(args.workload, args.seed, sw)
        gc.collect()
        gc.freeze()  # the workload's inputs live for the whole run; keep them out of the collector's scans
        metrics, extra = run_traced(m) if args.trace else run_timed(m, args.seconds)
    detail = m.record()
    detail.update(extra)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if m.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
