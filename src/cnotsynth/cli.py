"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or input-parse errors.
Machine-readable output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .circuit import (
    Circuit,
    CircuitSyntaxError,
    connectivity_violations,
    parse_circuit,
    write_circuit,
)
from .linalg import AugmentedTransform, parity_mask
from .linsynth import linear_tf_synth
from .phasepoly import PhasePolySet, dump_phasepoly, extract_hfree, transform_of_circuit
from .phasesynth import phase_nw_synth
from .pipeline import bench_random, bench_tsv, resynthesize
from .topology import PRESET_NAMES, parse_graph, preset_graph, write_graph
from .verify import equivalent_up_to_phase, phase_poly_equal


class CliError(ValueError):
    """Bad input or an unusable file: exit code 2, like any other ValueError."""


def _load_graph(spec: str):
    if spec in PRESET_NAMES:
        return preset_graph(spec)
    path = Path(spec)
    if path.exists():
        try:
            return parse_graph(path.read_text())
        except (OSError, ValueError) as exc:
            raise CliError(f"bad graph file {spec!r}: {exc}") from exc
    raise CliError(f"unknown preset or missing graph file {spec!r}; presets: {', '.join(PRESET_NAMES)}")


def _load_circuit(path: str):
    try:
        return parse_circuit(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read circuit {path}: {exc}") from exc
    except CircuitSyntaxError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_matrix(path: str) -> AugmentedTransform:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read matrix {path}: {exc}") from exc
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "n":
        raise CliError(f"{path}: expected header 'n <k>'")
    try:
        n = int(header[1])
        if n < 1:
            raise ValueError("matrix size must be positive")
        bits = [[int(t) for t in ln.split()] for ln in lines[1:]]
        if len(bits) != n:
            raise ValueError(f"expected {n} rows, got {len(bits)}")
        return AugmentedTransform.from_bits(bits)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_terms(path: str) -> PhasePolySet:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read terms {path}: {exc}") from exc
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            tokens = [int(t) for t in line.split()]
        except ValueError as exc:
            raise CliError(f"{path} line {line_no}: {exc}") from exc
        if len(tokens) < 3:
            raise CliError(f"{path} line {line_no}: expected '<c> <bitflip> <parity bits>'")
        if any(t not in (0, 1) for t in tokens[1:]):
            raise CliError(f"{path} line {line_no}: bit-flip and parity entries must be 0 or 1")
        rows.append(tokens)
    if not rows:
        raise CliError(f"{path}: no terms")
    width = len(rows[0]) - 2
    terms = PhasePolySet()
    for tokens in rows:
        if len(tokens) - 2 != width:
            raise CliError(f"{path}: inconsistent parity widths")
        coeff, bit, bits = tokens[0], tokens[1], tokens[2:]
        if any(bits):  # a constant-only term is a global phase
            terms.add(coeff, parity_mask([i for i, b in enumerate(bits, 1) if b], const=bool(bit)))
    return terms


def _cmd_resynth(args) -> int:
    circ = _load_circuit(args.circuit)
    graph = _load_graph(args.graph)
    out, report = resynthesize(circ, graph, args.algo)
    if args.output:
        try:
            Path(args.output).write_text(write_circuit(out))
        except OSError as exc:
            raise CliError(f"cannot write circuit {args.output}: {exc}") from exc
    else:
        sys.stdout.write(write_circuit(out))
    if args.report == "json":
        sys.stdout.write(json.dumps(report.as_dict()) + "\n")
    else:
        d = report.as_dict()
        keys = ["input_cnots", "output_cnots", "overhead_pct", "seconds"]
        sys.stdout.write("\t".join(keys) + "\n")
        sys.stdout.write("\t".join(str(d[k]) for k in keys) + "\n")
    if args.verify:
        bad = connectivity_violations(out, graph)
        if bad:
            print(f"verification failed: {len(bad)} connectivity violations", file=sys.stderr)
            return 1
        if out.num_qubits <= 10:  # both circuits are padded to the graph's size
            padded = Circuit.trusted(out.num_qubits, circ.gates)
            if not equivalent_up_to_phase(padded, out):
                print("verification failed: circuits are not equivalent", file=sys.stderr)
                return 1
        else:
            print("note: circuit too large for dense verification; checked connectivity only", file=sys.stderr)
    return 0


def _cmd_synth_linear(args) -> int:
    matrix = _load_matrix(args.matrix)
    graph = _load_graph(args.graph)
    out = linear_tf_synth(matrix, graph)
    sys.stdout.write(write_circuit(out))
    return 0


def _cmd_synth_phase(args) -> int:
    graph = _load_graph(args.graph)
    terms = _load_terms(args.terms)
    circ, _ = phase_nw_synth(terms, graph)
    sys.stdout.write(write_circuit(circ))
    return 0


def _cmd_verify(args) -> int:
    a = _load_circuit(args.a)
    b = _load_circuit(args.b)
    if a.num_qubits != b.num_qubits:
        raise CliError("circuits must have the same qubit count")
    if args.mode == "unitary":
        ok = equivalent_up_to_phase(a, b)
    elif args.mode == "phasepoly":
        ok = phase_poly_equal(a, b)
    else:
        ok = transform_of_circuit(a) == transform_of_circuit(b)
    print("equivalent" if ok else "NOT equivalent")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    params: dict[str, str] = {}
    for key, eq, value in (kv.partition("=") for kv in args.random):
        if not eq or key not in ("n", "cnots", "trials") or key in params:
            raise CliError(f"--random takes each of n=<n> cnots=<k,...> trials=<t> once: {key + eq + value!r}")
        params[key] = value
    try:
        n = int(params["n"])
        counts = [int(x) for x in params["cnots"].split(",")]
        trials = int(params["trials"])
    except (KeyError, ValueError) as exc:
        raise CliError(f"--random needs 'n=<n> cnots=<k,...> trials=<t>': {exc}") from exc
    names = PRESET_NAMES[:-1] if args.graph == "all" else args.graph.split(",")
    graphs = {}
    for name in names:
        g = _load_graph(name)
        if n > g.num_vertices:
            raise CliError(f"n={n} exceeds {name} ({g.num_vertices} qubits)")
        graphs[name] = g
    rows = bench_random(graphs, n, counts, trials, args.seed, workers=args.workers)
    sys.stdout.write(bench_tsv(rows))
    return 0


def _cmd_dump_phasepoly(args) -> int:
    terms, _ = extract_hfree(_load_circuit(args.circuit))
    sys.stdout.write(dump_phasepoly(terms))
    return 0


def _cmd_presets(args) -> int:
    outdir = Path(args.outdir) if args.outdir else None
    for name in PRESET_NAMES:
        text = write_graph(preset_graph(name))
        if outdir:
            try:
                outdir.mkdir(parents=True, exist_ok=True)
                (outdir / f"{name}.graph").write_text(text)
            except OSError as exc:
                raise CliError(f"cannot write presets to {outdir}: {exc}") from exc
        else:
            sys.stdout.write(f"# {name}\n{text}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnotsynth")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resynth", help="re-synthesize a circuit for a coupling graph")
    p.add_argument("--algo", choices=["swap", "opt-a", "opt-b"], required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--output", help="write the circuit here instead of stdout")
    p.add_argument("--report", choices=["json", "tsv"], default="tsv")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_resynth)

    p = sub.add_parser("synth-linear", help="synthesize a {CNOT,X} circuit for a transform")
    p.add_argument("--matrix", required=True)
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_synth_linear)

    p = sub.add_parser("synth-phase", help="synthesize a phase polynomial network")
    p.add_argument("--terms", required=True)
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_synth_phase)

    p = sub.add_parser("verify", help="compare two circuit files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--mode", choices=["unitary", "phasepoly", "linear"], default="unitary")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="random-circuit benchmark grid")
    p.add_argument("--random", required=True, nargs="+", help="n=<n> cnots=<k,...> trials=<t>")
    p.add_argument("--graph", required=True, help="preset name, comma list, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help="bounded process pool for the trials")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("dump-phasepoly", help="print the phase polynomial of an H-free circuit")
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=_cmd_dump_phasepoly)

    p = sub.add_parser("presets", help="dump the built-in coupling graphs")
    p.add_argument("--outdir", help="write one .graph file per preset here")
    p.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # CliError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
