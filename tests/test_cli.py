import json

import pytest

from cnotsynth.cli import main
from cnotsynth.circuit import parse_circuit, cnot_count
from cnotsynth.topology import PRESET_NAMES, parse_graph, preset_graph


@pytest.fixture()
def circuit_file(tmp_path):
    path = tmp_path / "in.qct"
    path.write_text("qubits 9\nCNOT 1 9\nT 3\nH 2\nCNOT 4 5\n")
    return path


def test_resynth_ok(circuit_file, tmp_path, capsys):
    out = tmp_path / "out.qct"
    code = main(
        [
            "resynth",
            "--algo",
            "opt-a",
            "--circuit",
            str(circuit_file),
            "--graph",
            "9q-square",
            "--output",
            str(out),
            "--report",
            "json",
            "--verify",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["input_cnots"] == 2
    parsed = parse_circuit(out.read_text())
    assert parsed.num_qubits == 9


def test_resynth_verify_on_padded_graph(circuit_file, tmp_path, capsys):
    # 9 circuit qubits padded to 16 graph qubits: too large for the dense check
    out = tmp_path / "out.qct"
    args = ["resynth", "--algo", "opt-a", "--circuit", str(circuit_file), "--graph", "16q-square"]
    assert main(args + ["--output", str(out), "--verify"]) == 0
    assert "checked connectivity only" in capsys.readouterr().err
    assert parse_circuit(out.read_text()).num_qubits == 16


def test_resynth_swap_report_tsv(circuit_file, capsys):
    code = main(
        ["resynth", "--algo", "swap", "--circuit", str(circuit_file), "--graph", "9q-square"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "input_cnots" in lines[-2]


def test_unknown_preset_exit_2(circuit_file, capsys):
    code = main(
        ["resynth", "--algo", "swap", "--circuit", str(circuit_file), "--graph", "10q-ring"]
    )
    assert code == 2
    assert "9q-square" in capsys.readouterr().err  # the message names valid presets


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.qct"
    bad.write_text("qubits 2\nFROB 1\n")
    code = main(["resynth", "--algo", "swap", "--circuit", str(bad), "--graph", "9q-square"])
    assert code == 2
    assert "unknown gate" in capsys.readouterr().err


def test_unreadable_graph_exit_2(circuit_file, tmp_path, capsys):
    # a directory is no graph file; "" names the working directory
    code = main(["resynth", "--algo", "swap", "--circuit", str(circuit_file), "--graph", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad graph file")
    assert main(["bench", "--random", "n=6", "cnots=2", "trials=1", "--graph", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad graph file") and not captured.out


def test_unreadable_circuit_exit_2(tmp_path, capsys):
    code = main(["resynth", "--algo", "swap", "--circuit", str(tmp_path), "--graph", "9q-square"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read circuit {tmp_path}: ") and not captured.out


def test_unwritable_output_exit_2(circuit_file, tmp_path, capsys):
    args = ["resynth", "--algo", "swap", "--circuit", str(circuit_file), "--graph", "9q-square"]
    code = main(args + ["--output", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write circuit")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["resynth", "--algo", "frobnicate", "--circuit", "x", "--graph", "y"])
    assert err.value.code == 2


def test_verify_modes(tmp_path, capsys):
    a = tmp_path / "a.qct"
    b = tmp_path / "b.qct"
    a.write_text("qubits 1\nT 1\nT 1\n")
    b.write_text("qubits 1\nS 1\n")
    assert main(["verify", "--a", str(a), "--b", str(b), "--mode", "unitary"]) == 0
    assert main(["verify", "--a", str(a), "--b", str(b), "--mode", "phasepoly"]) == 0
    b.write_text("qubits 1\nSDG 1\n")
    assert main(["verify", "--a", str(a), "--b", str(b)]) == 1


def test_verify_phasepoly_rejects_h_exit_2(tmp_path, capsys):
    a = tmp_path / "a.qct"
    b = tmp_path / "b.qct"
    a.write_text("qubits 2\nT 1\nH 2\nCNOT 1 2\n")
    b.write_text("qubits 2\nT 1\nCNOT 1 2\n")
    assert main(["verify", "--a", str(a), "--b", str(b), "--mode", "phasepoly"]) == 2
    captured = capsys.readouterr()
    assert "H gate not allowed" in captured.err and not captured.out


@pytest.mark.parametrize("mode", ["unitary", "phasepoly", "linear"])
def test_verify_width_mismatch_exit_2(tmp_path, capsys, mode):
    # circuits of different widths are an input error in every mode, not a verdict
    a = tmp_path / "a.qct"
    b = tmp_path / "b.qct"
    a.write_text("qubits 2\nCNOT 1 2\n")
    b.write_text("qubits 3\nCNOT 1 2\n")
    assert main(["verify", "--a", str(a), "--b", str(b), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: circuits must have the same qubit count\n" and not captured.out
    b.write_text("qubits 2\nCNOT 2 1\n")  # same width, different circuit
    assert main(["verify", "--a", str(a), "--b", str(b), "--mode", mode]) == 1
    assert capsys.readouterr().out == "NOT equivalent\n"


@pytest.mark.parametrize(
    "mode,text,message",
    [
        ("linear", "qubits 2\nT 1\nCNOT 1 2\n", "error: transform replay supports only CNOT and X, got T\n"),
        ("unitary", "qubits 13\nCNOT 1 13\n", "error: dense simulation capped at 12 qubits, got 13\n"),
    ],
)
def test_verify_mode_input_limits_exit_2(tmp_path, capsys, mode, text, message):
    # a gate the linear replay cannot take, or a width past the dense cap, is an input error, not a verdict
    a = tmp_path / "a.qct"
    a.write_text(text)
    assert main(["verify", "--a", str(a), "--b", str(a), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.err == message and not captured.out


def test_verify_linear_mode(tmp_path):
    a = tmp_path / "a.qct"
    b = tmp_path / "b.qct"
    a.write_text("qubits 2\nCNOT 1 2\nCNOT 1 2\n")
    b.write_text("qubits 2\n")
    assert main(["verify", "--a", str(a), "--b", str(b), "--mode", "linear"]) == 0


def test_synth_linear(tmp_path, capsys):
    matrix = tmp_path / "m.mat"
    matrix.write_text("n 2\n0 1 0\n1 0 0\n")  # the swap permutation
    assert main(["synth-linear", "--matrix", str(matrix), "--graph", str(_graph_file(tmp_path))]) == 0
    out = parse_circuit(capsys.readouterr().out)
    assert cnot_count(out) == 3


def _graph_file(tmp_path):
    path = tmp_path / "line.graph"
    path.write_text("vertices 2\nedge 1 2\n")
    return path


@pytest.mark.parametrize(
    "command",
    [("resynth", "swap"), ("resynth", "opt-a"), ("resynth", "opt-b"), ("synth-linear", None)],
)
def test_disconnected_graph_exit_2(tmp_path, capsys, command):
    # two components, {1, 2} and {3, 4}; every input below couples them
    graph = tmp_path / "split.graph"
    graph.write_text("vertices 4\nedge 1 2\nedge 3 4\n")
    sub, algo = command
    if sub == "resynth":
        circuit = tmp_path / "c.qct"
        circuit.write_text("qubits 4\nCNOT 1 3\n")
        args = ["resynth", "--algo", algo, "--circuit", str(circuit)]
    else:
        matrix = tmp_path / "m.mat"
        matrix.write_text("n 4\n0 0 1 0 0\n0 1 0 0 0\n1 0 0 0 0\n0 0 0 1 0\n")  # swaps 1 and 3
        args = ["synth-linear", "--matrix", str(matrix)]
    assert main(args + ["--graph", str(graph)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("vertices -2\nedge 1 2\n", 1, "vertex count must be positive"),
        ("vertices 0\n", 1, "vertex count must be positive"),
        ("# a comment\nvertices two\n", 2, "bad vertex count"),
        ("vertices 4\nedge 1 2\nedge 2 x\n", 3, "bad vertex"),
        ("vertices 4\nedge 3 3\n", 2, "self-loop"),
        ("vertices 4\nedge 1 2\n\nedge 4 5\n", 4, "outside vertex range"),
        ("\n", 1, "missing 'vertices <n>' header"),
        ("nodes 4\n", 1, "expected header 'vertices <n>'"),
        ("vertices 3\nlink 1 2\n", 2, "expected 'edge <u> <v>'"),
    ],
    ids=[
        "negative-count",
        "zero-count",
        "count-not-int",
        "endpoint-not-int",
        "self-loop",
        "out-of-range",
        "empty",
        "bad-header",
        "bad-edge-line",
    ],
)
def test_malformed_graph_file_exit_2(tmp_path, capsys, text, line, message):
    graph = tmp_path / "bad.graph"
    graph.write_text(text)
    circuit = tmp_path / "c.qct"
    circuit.write_text("qubits 2\nCNOT 1 2\n")
    assert main(["resynth", "--algo", "swap", "--circuit", str(circuit), "--graph", str(graph)]) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert "error:" in err and f"line {line}: " in err and message in err and not captured.out


@pytest.mark.parametrize(
    "sub, text",
    [
        ("synth-linear", "n 2\n2 0 0\n0 1 0\n"),
        ("synth-phase", "1 0 2 0 0 0 0 0\n"),
        ("synth-phase", "1 5 1 0 0 0 0 0\n"),
        ("synth-linear", "n 0\n"),
        ("synth-linear", "n 3 junk\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"),
    ],
    ids=["matrix-entry-2", "parity-entry-2", "bitflip-5", "matrix-size-0", "matrix-header-extra-token"],
)
def test_non_binary_entries_exit_2(tmp_path, capsys, sub, text):
    # coefficients are free integers mod 8, but bit-flips and parity/matrix entries are 0/1;
    # a matrix needs a row, as a circuit needs a qubit and a graph a vertex; its header is
    # exactly 'n <k>', as a circuit's is 'qubits <n>'
    path = tmp_path / "input.txt"
    path.write_text(text)
    flag = "--matrix" if sub == "synth-linear" else "--terms"
    assert main([sub, flag, str(path), "--graph", "9q-square"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--terms", "1 0 x 1\n", " line 1: invalid literal for int()"),
        ("--terms", "1 0\n", " line 1: expected '<c> <bitflip> <parity bits>'"),
        ("--terms", "# comments only\n\n", ": no terms"),
        ("--terms", "1 0 1 0\n1 0 1\n", ": inconsistent parity widths"),
        ("--matrix", "n 3\n1 0 0 0\n0 1 0 0\n", ": expected 3 rows, got 2"),
        ("--circuit", "qubits 0\n", ": line 1: qubit count must be positive"),
        ("--circuit", "qubits 2\nT a\n", ": line 2: bad qubit index in 'T a'"),
        ("--circuit", "# no header\n", ": line 1: missing 'qubits <n>' header"),
    ],
    ids=[
        "terms-not-int",
        "terms-short-line",
        "terms-none",
        "terms-mixed-widths",
        "matrix-few-rows",
        "circuit-zero-qubits",
        "circuit-qubit-not-int",
        "circuit-no-header",
    ],
)
def test_malformed_input_file_exit_2(tmp_path, capsys, flag, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    sub = {"--terms": ["synth-phase"], "--matrix": ["synth-linear"], "--circuit": ["resynth", "--algo", "swap"]}
    assert main([*sub[flag], flag, str(path), "--graph", "9q-square"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}{message}") and not captured.out


def test_synth_phase(tmp_path, capsys):
    terms = tmp_path / "t.terms"
    terms.write_text("1 0 1 1\n4 1 0 1\n")
    assert main(["synth-phase", "--terms", str(terms), "--graph", str(_graph_file(tmp_path))]) == 0
    out = parse_circuit(capsys.readouterr().out)
    assert out.num_qubits == 2


def test_synth_phase_parity_wider_than_graph_exit_2(tmp_path, capsys):
    terms = tmp_path / "t.terms"
    terms.write_text("1 0 1 0 0\n3 1 0 1 1\n")  # three variables, two wires
    assert main(["synth-phase", "--terms", str(terms), "--graph", str(_graph_file(tmp_path))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: parity 1⊕x2⊕x3 uses variables beyond x2" in captured.err


@pytest.mark.parametrize(
    "text",
    ["5 1 0 0\n", "1 0 1 1\n7 0 1 1\n", "4 0 1 0\n2 0 1 0\n2 0 1 0\n"],
    ids=["zero-parity", "cancelling", "cancelling-mod-8"],
)
def test_synth_phase_constant_or_cancelled_terms_emit_no_gate(tmp_path, capsys, text):
    terms = tmp_path / "t.terms"
    terms.write_text(text)
    assert main(["synth-phase", "--terms", str(terms), "--graph", str(_graph_file(tmp_path))]) == 0
    out = parse_circuit(capsys.readouterr().out)
    assert out.num_qubits == 2 and out.gates == ()


def test_dump_phasepoly(tmp_path, capsys):
    c = tmp_path / "c.qct"
    c.write_text("qubits 2\nT 1\nCNOT 1 2\nS 2\n")
    assert main(["dump-phasepoly", "--circuit", str(c)]) == 0
    out = capsys.readouterr().out
    assert out == "1 : x1\n2 : x1⊕x2\n"


def test_dump_phasepoly_rejects_h(tmp_path, capsys):
    c = tmp_path / "c.qct"
    c.write_text("qubits 1\nH 1\n")
    assert main(["dump-phasepoly", "--circuit", str(c)]) == 2


def test_presets_dump(tmp_path):
    outdir = tmp_path / "graphs"
    assert main(["presets", "--outdir", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.glob("*.graph"))
    assert "9q-square.graph" in files and len(files) == 6
    g = parse_graph((outdir / "ibm-q20-tokyo.graph").read_text())
    assert g.num_vertices == 20


def test_presets_to_stdout(capsys):
    # with no --outdir each preset's graph file follows a '# <name>' line
    assert main(["presets"]) == 0
    sections = capsys.readouterr().out.split("# ")
    assert sections[0] == "" and len(sections) == 1 + len(PRESET_NAMES)
    for name, section in zip(PRESET_NAMES, sections[1:]):
        head, body = section.split("\n", 1)
        assert head == name and parse_graph(body) == preset_graph(name)


def test_presets_outdir_is_a_file_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["presets", "--outdir", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write presets")


def test_bench_deterministic(capsys):
    args = [
        "bench",
        "--random",
        "n=6",
        "cnots=2,3",
        "trials=2",
        "--graph",
        "appendix-2x3",
        "--seed",
        "7",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out

    def strip_times(text):
        # wall-clock columns vary run to run; everything else must be identical
        rows = [line.split("\t") for line in text.strip().splitlines()]
        return [[c for i, c in enumerate(row) if i not in (5, 7)] for row in rows]

    assert strip_times(first) == strip_times(second)
    assert len(first.strip().splitlines()) == 3


def test_bench_bad_params(capsys):
    assert main(["bench", "--random", "n=6", "--graph", "appendix-2x3"]) == 2
    # a token without "=", an unknown key or a repeated key is rejected, not ignored
    for extra in (["junk"], ["trial=9"], ["n=5"], ["=3"]):
        params = ["n=4", "cnots=3", "trials=1", *extra]
        assert main(["bench", "--random", *params, "--graph", "appendix-2x3"]) == 2, extra
        captured = capsys.readouterr()
        assert "--random takes" in captured.err and not captured.out, extra


def test_bench_rejects_nonpositive_workers(capsys):
    args = ["bench", "--random", "n=6", "cnots=2", "trials=1", "--graph", "appendix-2x3"]
    assert main(args + ["--workers", "-3"]) == 2
    assert "workers" in capsys.readouterr().err
    # impossible grids are rejected by name before any circuit is drawn
    for params, name in [
        (["n=1", "cnots=3", "trials=2"], "num_qubits"),
        (["n=6", "cnots=3", "trials=0"], "trials"),
        (["n=6", "cnots=3,-3", "trials=2"], "CNOT counts"),
        (["n=6", "cnots=0", "trials=2"], "CNOT counts"),
        (["n=7", "cnots=3", "trials=2"], "error: n=7 exceeds appendix-2x3 (6 qubits)"),
    ]:
        assert main(["bench", "--random", *params, "--graph", "appendix-2x3"]) == 2, params
        captured = capsys.readouterr()
        assert name in captured.err and not captured.out, params
