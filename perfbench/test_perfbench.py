"""Checks of the benchmark's own machinery, on slices small enough for the test suite."""

import random

import pathsum
import run
from cnotsynth import linalg, phasepoly, pipeline
from cnotsynth.circuit import Circuit
from cnotsynth.pipeline import random_circuit, resynthesize
from cnotsynth.topology import grid_graph
from cnotsynth.verify import equivalent_up_to_phase
from clock import Stopwatch
from tracing import Tracer


def _slice(seed: int, jobs: int = 4) -> dict:
    with Stopwatch() as sw:
        m = run.Measurement("presets-9q", seed, sw)
        m.w.jobs = m.w.jobs[:jobs]
        for algo in m.pipelines:
            m.first[algo] = [None] * jobs
            m.compile_round(algo)
            m.compile_round(algo)
        m.check_outputs()
        assert all(raw > 0 and scaled > 0 for _, raw, scaled in sw.intervals())
    assert m.failed == 0
    return m.record()


def test_small_slice_is_deterministic():
    first = _slice(3)
    assert first == _slice(3)
    assert first["outputs"]["opt-a"]["output_cnots"] > 0


def test_path_sum_agrees_with_dense_oracle_and_rejects_deletions():
    g = grid_graph(2, 3)
    rng = random.Random(11)
    for _ in range(4):
        c = random_circuit(6, 8, rng)
        for algo in ("swap", "opt-a", "opt-b"):
            out, _ = resynthesize(c, g, algo)
            padded = Circuit(out.num_qubits, c.gates)
            assert pathsum.off_graph_cnots(out, g.edges) == 0
            assert pathsum.equivalent(padded, out) and equivalent_up_to_phase(padded, out)
            at = rng.randrange(len(out.gates))
            cut = Circuit(out.num_qubits, out.gates[:at] + out.gates[at + 1 :])
            assert not pathsum.equivalent(padded, cut)
            assert not equivalent_up_to_phase(padded, cut)


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (linalg.f2_solve, pipeline.f2_solve, phasepoly.f2_solve)
    c = random_circuit(6, 10, random.Random(5))
    g = grid_graph(2, 3)
    plain = [resynthesize(c, g, algo)[0] for algo in ("opt-a", "opt-b")]
    tracer = Tracer()
    with tracer.installed():
        assert pipeline.f2_solve is phasepoly.f2_solve is linalg.f2_solve
        assert linalg.f2_solve is not originals[0]
        traced = [resynthesize(c, g, algo)[0] for algo in ("opt-a", "opt-b")]
    assert (linalg.f2_solve, pipeline.f2_solve, phasepoly.f2_solve) == originals
    assert traced == plain
    metrics = tracer.metrics()
    assert metrics["pipeline.slices"][0] == 2 * (1 + sum(1 for gt in c.gates if gt.kind.value == "H"))
    assert metrics["linalg.f2_solve.calls"][0] > 0
    assert all(v > -1e-9 for v, unit in metrics.values() if unit == "s")
    assert 0 < metrics["linalg.f2_row_reduce.distinct_share"][0] <= 1
