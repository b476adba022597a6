"""Steiner-tree based CNOT re-synthesis of Clifford+T circuits on constrained architectures."""

from .circuit import (
    Circuit,
    CircuitSyntaxError,
    Gate,
    GateKind,
    cnot,
    cnot_count,
    connectivity_violations,
    count_gates,
    parse_circuit,
    write_circuit,
)
from .linalg import AugmentedTransform, OverBudget, SingularTransformError
from .linsynth import linear_tf_synth, row_op
from .phasepoly import (
    PhasePolySet,
    extract_hfree,
    extract_sliced,
    rebase,
    transform_of_circuit,
    uncomputable_terms,
)
from .phasesynth import phase_nw_synth
from .pipeline import (
    ResynthesisReport,
    cnot_opt_a,
    cnot_opt_b,
    random_circuit,
    resynthesize,
    swap_template,
)
from .topology import (
    ConnectivityGraph,
    DisconnectedTerminalsError,
    NoPathError,
    PRESET_NAMES,
    SteinerTree,
    preset_graph,
    shortest_path,
    steiner_tree,
)
from .verify import equivalent_up_to_phase, phase_poly_equal

__all__ = [
    "AugmentedTransform",
    "Circuit",
    "CircuitSyntaxError",
    "ConnectivityGraph",
    "DisconnectedTerminalsError",
    "Gate",
    "GateKind",
    "NoPathError",
    "OverBudget",
    "PhasePolySet",
    "PRESET_NAMES",
    "ResynthesisReport",
    "SingularTransformError",
    "SteinerTree",
    "cnot",
    "cnot_count",
    "cnot_opt_a",
    "cnot_opt_b",
    "connectivity_violations",
    "count_gates",
    "equivalent_up_to_phase",
    "extract_hfree",
    "extract_sliced",
    "linear_tf_synth",
    "parse_circuit",
    "phase_nw_synth",
    "phase_poly_equal",
    "preset_graph",
    "random_circuit",
    "rebase",
    "resynthesize",
    "row_op",
    "shortest_path",
    "steiner_tree",
    "swap_template",
    "transform_of_circuit",
    "uncomputable_terms",
    "write_circuit",
]
