"""Per-layer spans and counters, recorded around calls into cnotsynth from outside it.

The library's modules bind imported names (``f2_solve`` lives in ``pipeline`` and
``phasepoly`` as well as ``linalg``), so each wrapper replaces the function under
every name in every cnotsynth module that binds it, and ``Tracer.installed``
puts the originals back. Spans (name, start, end, parent) stay in memory until
the run ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from importlib import import_module

import numpy as np

from cnotsynth.circuit import GateKind

TRACED = {
    "phasepoly": ("extract_hfree", "extract_sliced", "uncomputable_terms", "rebase"),
    "linalg": ("f2_row_reduce", "f2_solve"),
    "topology": ("steiner_tree", "shortest_path"),
    "linsynth": ("linear_tf_synth", "row_op"),
    "phasesynth": ("phase_nw_synth",),
    "pipeline": ("swap_template", "cnot_opt_a", "cnot_opt_b"),
    "verify": ("equivalent_up_to_phase", "circuit_unitary"),
}
# The pipelines run once per circuit; their call counts say nothing.
SELF_ONLY = ("pipeline",)

# Counters reported next to the spans: name -> unit.
COUNTERS = {
    "linalg.f2_row_reduce.rows": "count",
    "linalg.f2_row_reduce.distinct_share": "share",
    "topology.steiner_tree.terminals": "count",
    "topology.steiner_tree.edges": "count",
    "topology.steiner_tree.distinct_active_share": "share",
    "linsynth.linear_tf_synth.cnots": "count",
    "phasesynth.phase_nw_synth.cnots": "count",
    "phasesynth.phase_nw_synth.terms": "count",
    "pipeline.slices": "count",
    "verify.circuit_unitary.bytes": "B",
}


def _cnots(circuit) -> int:
    return sum(1 for g in circuit.gates if g.kind is GateKind.CNOT)


class Tracer:
    """Spans and counters of one traced run; create one per run."""

    def __init__(self):
        self.names: list[str] = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._open: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._reduce_inputs: set = set()
        self._reduce_distinct = 0
        self._reduce_calls = 0
        self._tree_keys: set = set()
        self._tree_distinct = 0
        self._tree_calls = 0

    def new_circuit(self) -> None:
        """Close the per-circuit scope of the distinct-input shares."""
        self._reduce_distinct += len(self._reduce_inputs)
        self._tree_distinct += len(self._tree_keys)
        self._reduce_inputs = set()
        self._tree_keys = set()

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        if name == "linalg.f2_row_reduce":
            rows = args[0]
            c["linalg.f2_row_reduce.rows"] += len(rows)
            self._reduce_inputs.add(tuple(rows))
            self._reduce_calls += 1
        elif name == "topology.steiner_tree":
            graph = args[0]
            active = args[3] if len(args) > 3 else kwargs.get("active")
            c["topology.steiner_tree.terminals"] += len(result.terminals)
            c["topology.steiner_tree.edges"] += result.edge_count
            self._tree_keys.add((id(graph), active))
            self._tree_calls += 1
        elif name == "linsynth.linear_tf_synth":
            c["linsynth.linear_tf_synth.cnots"] += _cnots(result)
        elif name == "phasesynth.phase_nw_synth":
            c["phasesynth.phase_nw_synth.cnots"] += _cnots(result[0])
            c["phasesynth.phase_nw_synth.terms"] += len(args[0].columns)
        elif name in ("pipeline.cnot_opt_a", "pipeline.cnot_opt_b"):
            c["pipeline.slices"] += 1 + sum(1 for g in args[0].gates if g.kind is GateKind.H)
        elif name == "verify.circuit_unitary":
            c["verify.circuit_unitary.bytes"] += result.nbytes

    def _wrap(self, name_id: int, fn):
        name = self.names[name_id]
        clock = time.perf_counter
        spans_name, spans_start, spans_end, spans_parent = self.name, self.start, self.end, self.parent
        open_ = self._open

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(name_id)
            spans_parent.append(open_[-1] if open_ else -1)
            spans_end.append(0.0)
            open_.append(idx)
            spans_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[idx] = clock()
                open_.pop()
            self._count(name, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every traced function in every cnotsynth module; restore on exit."""
        modules = [m for key, m in list(sys.modules.items()) if key == "cnotsynth" or key.startswith("cnotsynth.")]
        patched: list[tuple[object, str, object]] = []
        try:
            for name_id, full in enumerate(self.names):
                mod, fname = full.split(".")
                original = getattr(import_module(f"cnotsynth.{mod}"), fname)
                wrapper = self._wrap(name_id, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)

    def self_times(self) -> np.ndarray:
        """Self time of every span: its duration minus the durations of its children."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        covered = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(covered, parent[inner], dur[inner])
        return dur - covered

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: ``<module>.<F>.calls``, ``<module>.<F>.self_s`` and the counters."""
        self.new_circuit()
        names = np.frombuffer(self.name, dtype=np.uint16)
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self.self_times(), minlength=len(self.names))
        out: dict[str, tuple[float, str]] = {}
        for i, full in enumerate(self.names):
            if full.split(".")[0] not in SELF_ONLY:
                out[f"{full}.calls"] = (int(calls[i]), "count")
            out[f"{full}.self_s"] = (float(self_s[i]), "s")
        shares = {
            "linalg.f2_row_reduce.distinct_share": (self._reduce_distinct, self._reduce_calls),
            "topology.steiner_tree.distinct_active_share": (self._tree_distinct, self._tree_calls),
        }
        for key, unit in COUNTERS.items():
            if key in shares:
                distinct, total = shares[key]
                out[key] = (distinct / total if total else 0.0, unit)
            else:
                out[key] = (self.counts[key], unit)
        return out

    def save(self, path) -> None:
        """Write every span out as arrays: name index, start, end, parent index (-1 for none)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )
