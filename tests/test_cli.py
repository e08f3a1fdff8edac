import functools
import itertools
import json
import operator
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from radixcirc import block_builder as bb
from radixcirc import cli, ir, sim

import oracle


def run_cli(*argv):
    return cli.main(list(argv))


def test_build_compress241_to_file(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run_cli("build", "--kind", "compress241", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["wires"]) == 2 and len(doc["gates"]) == 3
    assert "width=2" in capsys.readouterr().out


def test_build_stdout_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("build", "--kind", "cla-adder", "--n", "4", "--carry-out", "--out", str(a))
    run_cli("build", "--kind", "cla-adder", "--n", "4", "--carry-out", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    # without --out the circuit goes to stdout and the summary to stderr
    assert run_cli("build", "--kind", "cla-adder", "--n", "4", "--carry-out") == 0
    out, err = capsys.readouterr()
    assert out == a.read_text() and err.startswith("kind=cla-adder width=") and " c=" not in err


def test_build_infeasible_exits_2(tmp_path, capsys):
    rc = run_cli("build", "--kind", "block-adder", "--n", "29", "--scheme", "231", "--out", str(tmp_path / "x.json"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "infeasible" in err and "2n/c + c - 1" in err
    # c=13 meets the worst-case bound (16 >= 16) and fails the exact accounting
    assert run_cli("build", "--kind", "block-adder", "--n", "26", "--scheme", "231") == 2
    err = capsys.readouterr().err
    assert "c=13: accounting 12 ancilla per step < 13 needed" in err
    assert "c=2: bound 8 < 27" in err and "c=26: bound 16 < 27" in err


def test_build_missing_flags_exit_2():
    assert run_cli("build", "--kind", "cla-adder") == 2
    assert run_cli("build", "--kind", "plus-k", "--n", "3") == 2
    assert run_cli("build", "--kind", "block-plus-k", "--n", "60", "--scheme", "241") == 2


def test_simulate_table_row(tmp_path, capsys):
    out = tmp_path / "c231.json"
    run_cli("build", "--kind", "compress231", "--out", str(out))
    capsys.readouterr()
    assert run_cli("simulate", str(out), "--input", "1,0,1") == 0
    assert capsys.readouterr().out.strip() == "2,1,0"


def test_simulate_bad_input_exits_2(tmp_path, capsys):
    out = tmp_path / "c231.json"
    run_cli("build", "--kind", "compress231", "--out", str(out))
    assert run_cli("simulate", str(out), "--input", "1,0") == 2
    assert run_cli("simulate", str(out), "--input", "1,0,7") == 2
    assert run_cli("simulate", str(out), "--input", "x,y,z") == 2
    assert run_cli("simulate", str(tmp_path / "missing.json"), "--input", "0") == 2


def test_verify_exhaustive_compress(capsys):
    assert run_cli("verify", "--kind", "compress231", "--exhaustive") == 0
    assert "PASS compress231: 8 cases" in capsys.readouterr().out
    assert run_cli("verify", "--kind", "compress241", "--exhaustive") == 0


@pytest.mark.parametrize("free", [*range(1, 13), 20])
def test_exhaustive_rows_are_itertools_product_order(free):
    width = free + 2
    cols = list(range(1, free + 1))
    ins = cli._input_levels(width, cols, True, 0, 0)
    rows = itertools.chain.from_iterable(itertools.product((0, 1), repeat=free))
    want = np.zeros((1 << free, width), dtype=np.uint8)
    want[:, cols] = np.fromiter(rows, dtype=np.uint8, count=free << free).reshape(-1, free)
    ones = (1 << len(ins)) - 1
    assert len(ins) == 1 << free and ins.wires[0] == ins.wires[-1] == [ones]
    assert (oracle.from_levels(ins, np.uint8) == want).all()
    assert all(levels == [ones ^ levels[1], levels[1]] and levels[1] >> len(ins) == 0 for levels in ins.wires[1:-1])


def test_sampled_rows_are_seeded_words():
    ins = cli._input_levels(5, [0, 2, 4], False, 130, 9)
    rng = random.Random(9)
    ones = (1 << 130) - 1
    assert len(ins) == 130 and ins.wires[1] == ins.wires[3] == [ones]
    for w in [0, 2, 4]:
        x = rng.getrandbits(130)
        assert ins.wires[w] == [ones ^ x, x]


CARRIES = [(False, False), (False, True), (True, False), (True, True)]


@pytest.mark.parametrize("carry_in,carry_out", CARRIES)
@pytest.mark.parametrize("flags", ["cla-adder --n 4", "ripple-adder --n 4", "plus-k --n 4 --k 9"])
def test_verify_adders(capsys, flags, carry_in, carry_out):
    kind = flags.split()[0]
    argv = ["verify", "--kind", *flags.split(), "--exhaustive"] + ["--carry-in"] * carry_in + ["--carry-out"] * carry_out
    assert run_cli(*argv) == 0
    inputs = (4 if kind == "plus-k" else 8) + carry_in
    assert capsys.readouterr().out == f"PASS {kind}: {1 << inputs} cases\n"


@pytest.mark.parametrize("flags", [
    "compress231",
    "compress241",
    "cla-adder --n 5 --carry-in --carry-out",
    "plus-k --n 5 --k 21 --carry-out",
    "ripple-adder --n 5 --carry-in",
    "block-adder --n 12 --scheme 241 --carry-in --carry-out",
    "block-plus-k --n 36 --scheme 241 --carry-out --k 12345",
    "block-adder --n 30 --scheme 231",
])
def test_build_kind_layout_names_the_circuit_wires(flags):
    circ, layout = cli.build_kind(cli.make_parser().parse_args(["build", "--kind", *flags.split()]))
    if flags.startswith("compress"):
        assert layout is None
        return
    names = layout.names()
    assert sorted(names) == list(range(circ.width))  # every wire, ancilla included
    assert {w: circ.wires[w].name for w in names} == names


def test_verify_sampled_block(capsys):
    rc = run_cli("verify", "--kind", "block-adder", "--n", "12", "--scheme", "241",
                 "--samples", "40", "--seed", "7", "--carry-in", "--carry-out")
    assert rc == 0
    assert "PASS block-adder: 40 cases" in capsys.readouterr().out


def _fail_row(out: str) -> dict[str, list[int]]:
    """The input, expected and got fields of a FAIL line."""
    fields = out.split(": ", 1)[1].split()
    return {k: [int(d) for d in v.split(",")] for k, v in (f.split("=") for f in fields)}


def test_verify_corrupted_circuit_exits_1(tmp_path, capsys):
    out = tmp_path / "c.json"
    run_cli("build", "--kind", "compress241", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["gates"] = doc["gates"][:-1]  # drop the last clearing gate
    out.write_text(json.dumps(doc))
    rc = run_cli("verify", "--kind", "compress241", "--exhaustive", "--circuit", str(out))
    assert rc == 1
    fail = _fail_row(capsys.readouterr().out)
    circ = ir.loads(out.read_text())
    assert fail["expected"] == list(cli.TABLE_241[tuple(fail["input"])])
    assert fail["got"] == list(sim.run(circ, sim.basis_state(circ, fail["input"])).digits)

    # An adder with one gate deleted first fails on row 257 of 512 (word 4, bit 1):
    # the row printed is that one, with the big-integer oracle's and the scalar run's outputs.
    flags = ["--kind", "cla-adder", "--n", "4", "--carry-in", "--carry-out"]
    run_cli("build", *flags, "--out", str(out))
    doc = json.loads(out.read_text())
    del doc["gates"][33]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", *flags, "--exhaustive", "--circuit", str(out)) == 1
    fail = _fail_row(capsys.readouterr().out)
    _, layout = cli.build_kind(cli.make_parser().parse_args(["build", *flags]))
    circ = ir.loads(out.read_text())
    ins = oracle.adder_inputs(layout, circ.width)
    got = np.array([sim.run(circ, sim.basis_state(circ, row)).digits for row in ins.tolist()])
    first = np.flatnonzero((got != oracle.adder_outputs(layout, ins)).any(axis=1))[0]
    assert first == 257 and fail["input"] == ins[first].tolist()
    assert fail["expected"] == oracle.adder_outputs(layout, ins[first:first + 1])[0].tolist()
    assert fail["got"] == got[first].tolist()


def test_verify_never_compares_padding_rows(tmp_path, capsys):
    # Wires 0-23 (A and B) are ququarts and cin, cout qubits.  The chain marks
    # wire k < 24 with 2 exactly when wires 0..k are all 0; one more gate turns
    # the last mark into 3 when cin and cout are 0 too, and the chain is undone.
    # So the circuit is wrong only on the all-zero input, which padding rows hold.
    flags = ["--kind", "block-adder", "--n", "12", "--scheme", "241", "--carry-in", "--carry-out"]
    circ, layout = cli.build_kind(cli.make_parser().parse_args(["build", *flags]))
    chain = [ir.flip(1, 0, 2, [(0, 0)])] + [ir.flip(w, 0, 2, [(w - 1, 2)]) for w in range(2, 24)]
    bug = ir.flip(23, 2, 3, [(24, 0), (25, 0)])
    circ = ir.extend(ir.new_circuit(circ.wires), [*circ.gates, *chain, bug, *chain[::-1]])
    zero = sim.basis_state(circ, [0] * circ.width)
    assert sim.run(circ, zero).digits[23] == 3
    path = tmp_path / "zero-bug.json"
    path.write_text(ir.dumps(circ))
    for samples in (1, 65):
        ins = cli._input_levels(circ.width, layout.inputs, False, samples, 3)
        drawn = functools.reduce(operator.or_, [ins.wires[w][1] for w in layout.inputs])
        assert drawn == (1 << samples) - 1  # no drawn row is all zero
        assert run_cli("verify", *flags, "--samples", str(samples), "--seed", "3", "--circuit", str(path)) == 0
        assert capsys.readouterr().out == f"PASS block-adder: {samples} cases\n"


def test_verify_circuit_of_other_scheme_exits_2(tmp_path, capsys):
    # Same width, different wire dims: a 2-3-1 block adder is not a 2-4-1 one.
    out = tmp_path / "b.json"
    run_cli("build", "--kind", "block-adder", "--n", "30", "--scheme", "231", "--carry-out", "--out", str(out))
    flags = ["--kind", "block-adder", "--n", "30", "--carry-out", "--samples", "500", "--circuit", str(out)]
    assert run_cli("verify", *flags, "--scheme", "231") == 0
    assert run_cli("verify", *flags, "--scheme", "241") == 2
    assert "wire dims do not match" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--kind", "block-adder", "--n", "30", "--scheme", "231", "--carry-out"],
    ["--kind", "block-plus-k", "--n", "36", "--scheme", "241", "--carry-in", "--carry-out", "--k", "45812984490"],
])
def test_verify_circuit_takes_wires_from_the_plan(tmp_path, capsys, monkeypatch, flags):
    # With --circuit, a block kind's dims and layout come from its plan: no gate is built.
    out = tmp_path / "b.json"
    assert run_cli("build", *flags, "--out", str(out)) == 0
    for name in ("build_block_adder", "build_block_plus_k"):
        monkeypatch.setattr(bb, name, None)
    capsys.readouterr()
    assert run_cli("verify", *flags, "--samples", "300", "--seed", "2", "--circuit", str(out)) == 0
    assert capsys.readouterr().out == f"PASS {flags[1]}: 300 cases\n"
    no_carry_out = [f for f in flags if f != "--carry-out"]
    assert run_cli("verify", *no_carry_out, "--samples", "9", "--circuit", str(out)) == 2
    assert "wire dims do not match" in capsys.readouterr().err
    if "--k" in flags:
        assert run_cli("verify", *flags[:-2], "--samples", "9", "--circuit", str(out)) == 2
        assert "--k in [0, 2^36) is required" in capsys.readouterr().err


def test_readme_n240_file_size(tmp_path, capsys):
    # README: the n=240 2-3-1 carry-out adder has 2,517 distinct gates of 9,109; its file is 155,513 bytes.
    out = tmp_path / "a240.json"
    assert run_cli("build", "--kind", "block-adder", "--n", "240", "--scheme", "231", "--carry-out", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert (len(doc["table"]), len(doc["gates"]), out.stat().st_size) == (2517, 9109, 155513)


def test_verify_exhaustive_too_large_exits_2():
    assert run_cli("verify", "--kind", "cla-adder", "--n", "16", "--exhaustive") == 2


def test_verify_usage_errors():
    assert run_cli("verify", "--kind", "cla-adder", "--n", "3") == 2  # no mode flag
    assert run_cli("verify", "--kind", "cla-adder", "--n", "3", "--samples", "0") == 2


def test_stats_json_and_csv(tmp_path, capsys):
    out = tmp_path / "c241.json"
    run_cli("build", "--kind", "compress241", "--out", str(out))
    capsys.readouterr()
    assert run_cli("stats", str(out)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_gates"] == 3
    assert doc["gate_counts"] == [{"arity": 2, "dim": 4, "count": 3}]
    assert run_cli("stats", str(out), "--csv") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("width,depth")


def test_stats_expand_cost_model(tmp_path, capsys):
    out = tmp_path / "c231.json"
    run_cli("build", "--kind", "compress231", "--out", str(out))
    capsys.readouterr()
    assert run_cli("stats", str(out), "--expand-cost-model") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_gates"] <= 22
    assert not doc["depth_exact"]


def test_stats_reads_plan_sidecar(tmp_path, capsys):
    out = tmp_path / "blk.json"
    run_cli("build", "--kind", "block-adder", "--n", "12", "--scheme", "241", "--out", str(out))
    assert capsys.readouterr().out.endswith(" c=4\n")  # the build summary reads the same plan
    assert run_cli("stats", str(out)) == 0
    doc = json.loads(capsys.readouterr().out)
    # 3 compressed blocks of 6 wires, one generated ancilla per 2-wire group
    assert doc["ancilla_generated"] == 9


@pytest.mark.parametrize("flags,width", [
    ("block-adder --n 12 --scheme 241", 24),
    ("block-adder --n 30 --scheme 231 --carry-in", 61),
    ("block-plus-k --n 60 --scheme 241 --carry-out --k 12345", 61),
    ("cla-adder --n 4 --carry-out", 13),
    ("plus-k --n 4 --k 9 --carry-in", 9),
    ("ripple-adder --n 4", 8),
    ("compress231", 3),
    ("compress241", 2),
])
def test_stats_derives_ancilla_generated_from_wires(tmp_path, capsys, flags, width):
    argv = ["build", "--kind", *flags.split()]
    args = cli.make_parser().parse_args(argv)
    plan = cli._block_plan(args) if args.kind in cli.BLOCK_KINDS else None

    def ancilla_generated(text):
        path = tmp_path / "stats.json"
        path.write_text(text)
        assert run_cli("stats", str(path)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["width"] == width
        return doc.get("ancilla_generated")

    out = tmp_path / "c.json"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert sorted(tmp_path.iterdir()) == [out]  # no plan file next to the circuit
    capsys.readouterr()
    expected = None if plan is None else plan.ancilla_per_step
    assert ancilla_generated(out.read_text()) == expected
    assert run_cli(*argv) == 0
    assert ancilla_generated(capsys.readouterr().out) == expected
    if plan is not None:
        # Wires that differ from the plan's layout in one name or one register dim are not its block adder.
        doc = json.loads(out.read_text())
        doc["wires"][1][0] = "x"
        assert ancilla_generated(json.dumps(doc)) is None
        doc = json.loads(out.read_text())
        doc["wires"][plan.block_layouts[0].groups[1][0]][1] += 1
        assert ancilla_generated(json.dumps(doc)) is None


def test_stats_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli("stats", str(bad)) == 2


@pytest.mark.parametrize("target", ["true", "1.0"])
def test_non_int_target_exits_2(tmp_path, capsys, target):
    doc = ('{"wires": [{"name": "a", "dim": 2}, {"name": "b", "dim": 2}], "gates": '
           '[{"kind": "flip", "targets": [1], "params": [0, 1], "controls": []}, '
           f'{{"kind": "flip", "targets": [{target}], "params": [0, 1], "controls": []}}]}}')
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert run_cli("stats", str(path)) == 2
    assert run_cli("simulate", str(path), "--input", "0,0") == 2
    assert "must be ints" in capsys.readouterr().err


def test_verify_corrupted_block_adder_exits_1(tmp_path, capsys):
    out = tmp_path / "blk.json"
    flags = ["--kind", "block-adder", "--n", "12", "--scheme", "241", "--carry-out"]
    run_cli("build", *flags, "--out", str(out))
    doc = json.loads(out.read_text())
    doc["gates"] = doc["gates"][:-1]  # leave the last block compressed
    out.write_text(json.dumps(doc))
    assert run_cli("verify", *flags, "--samples", "20", "--circuit", str(out)) == 1
    assert "FAIL block-adder" in capsys.readouterr().out


ONE_GATE = {"kind": "flip", "targets": [0], "params": [0, 1], "controls": []}
WIRE = {"name": "a", "dim": 2}
V1 = {"format": 1, "wires": [["a", 2], ["b", 2]], "table": [["flip", [0], [0, 1], []]], "gates": [0]}


@pytest.mark.parametrize("doc", [
    pytest.param({"wires": [WIRE], "gates": [{**ONE_GATE, "targets": 0}]}, id="targets-int"),
    pytest.param({"wires": [WIRE, WIRE], "gates": [{**ONE_GATE, "controls": [5]}]}, id="control-int"),
    pytest.param({"wires": {"a": WIRE}, "gates": []}, id="wires-object"),
    pytest.param([1, 2], id="top-level-list"),
    pytest.param({"wires": [WIRE], "gates": [7]}, id="gate-int"),
    pytest.param({k: v for k, v in V1.items() if k != "format"}, id="v1-no-format"),
    pytest.param({**V1, "format": 2}, id="v1-format-2"),
    pytest.param({**V1, "input_bounds": [2, 2]}, id="v1-unknown-key"),
    pytest.param({**V1, "wires": [["a", 2], [2, "b"]]}, id="v1-wire-not-name-dim"),
    pytest.param({**V1, "table": [["flip", [0], [0, 1]]]}, id="v1-row-of-3"),
    pytest.param({**V1, "table": [["flip", [0], [0, 1], [[1]]]]}, id="v1-control-not-pair"),
    pytest.param({**V1, "gates": [0, -1]}, id="v1-index-negative"),
    pytest.param({**V1, "gates": [0, True]}, id="v1-index-true"),
    pytest.param({**V1, "gates": [0, 1]}, id="v1-index-table-length"),
])
def test_stats_malformed_document_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert run_cli("stats", str(path)) == 2
    assert "error: " in capsys.readouterr().err


# A long integer is a gate target, not a wire dim: where Python has no digit limit it still
# parses, and an unknown wire exits 2 too.  A wire dim above ir.MAX_DIM exits 2 before any
# gate's digit table is built.
@pytest.mark.parametrize("text", [
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
    pytest.param(json.dumps({"wires": [WIRE], "gates": [ONE_GATE]}).replace('"targets": [0]', '"targets": [' + "9" * 5000 + "]"),
                 id="target-5000-digits"),
    pytest.param(json.dumps({"wires": [{"name": "a", "dim": 10 ** 9}], "gates": [{**ONE_GATE, "kind": "incr", "params": [1]}]}),
                 id="dim-1e9"),
])
@pytest.mark.parametrize("argv", [
    pytest.param(["stats"], id="stats"),
    pytest.param(["simulate", "--input", "0"], id="simulate"),
    pytest.param(["verify", "--kind", "compress241", "--exhaustive", "--circuit"], id="verify"),
])
def test_unparsable_json_exits_2(tmp_path, capsys, text, argv):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert run_cli(*argv, str(path)) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    pytest.param(["build", "--kind", "plus-k", "--n", "4", "--k", "-1"], id="plus-k-negative"),
    pytest.param(["verify", "--kind", "plus-k", "--n", "4", "--k", "16", "--exhaustive"], id="plus-k-too-wide"),
    pytest.param(["build", "--kind", "block-plus-k", "--n", "60", "--scheme", "241", "--k", "-1"], id="block-plus-k-negative"),
    pytest.param(["build", "--kind", "block-adder", "--n", "30", "--scheme", "259"], id="unknown-scheme"),
    pytest.param(["verify", "--kind", "compress231", "--samples", "5", "--seed", "-3"], id="negative-seed"),
    pytest.param(["verify", "--kind", "compress231", "--samples", "1048577"], id="samples-over-row-limit"),
])
def test_out_of_range_flags_exit_2(argv, capsys):
    assert run_cli(*argv) == 2
    assert "error: " in capsys.readouterr().err


def test_gate_without_kind_exits_2(tmp_path, capsys):
    gate = {key: value for key, value in ONE_GATE.items() if key != "kind"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"wires": [WIRE], "gates": [gate]}))
    assert run_cli("stats", str(path)) == 2
    assert "lacks the field 'kind'" in capsys.readouterr().err


def test_stats_non_utf8_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert run_cli("stats", str(bad)) == 2


def test_module_entry_point_runs_cli_once():
    # `python -m radixcirc.cli` must not find the module already imported by the package.
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "radixcirc.cli", "verify",
                           "--kind", "compress231", "--exhaustive"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0 and "PASS compress231" in proc.stdout, proc.stderr


def test_cli_runs_without_numpy(tmp_path):
    # The runtime needs only the standard library: with numpy unimportable, sampled verify,
    # build, stats and simulate all run.
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None
        from radixcirc import cli
        out = sys.argv[1]
        codes = [cli.main(argv) for argv in (
            ["verify", "--kind", "block-adder", "--n", "30", "--scheme", "231", "--samples", "200", "--seed", "1"],
            ["build", "--kind", "compress231", "--out", out],
            ["stats", out],
            ["simulate", out, "--input", "1,0,1"],
        )]
        print(codes)
    """)
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "c.json")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS block-adder: 200 cases\n")
    assert proc.stdout.endswith("2,1,0\n[0, 0, 0, 0]\n")


def test_closed_stdout_ends_quietly():
    # `radixcirc build ... | head -1`: about 430 KB of JSON, far more than a pipe holds, so the
    # write after the reader has gone always hits the closed pipe.
    src = Path(cli.__file__).parents[1]
    proc = subprocess.Popen([sys.executable, "-m", "radixcirc.cli", "build", "--kind", "cla-adder", "--n", "960"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "error:" not in err and "Traceback" not in err, err


def test_internal_errors_escape_main(monkeypatch):
    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr(bb, "plan_blocks", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run_cli("build", "--kind", "block-adder", "--n", "30", "--scheme", "231")


# --- the ripple-carry oracle against the big-integer one ----------------------

ADDER_CASES = [
    ("cla-adder", 5, "231"),
    ("ripple-adder", 5, "231"),
    ("plus-k", 5, "231"),
    ("block-adder", 30, "231"),
    ("block-adder", 12, "241"),
    ("block-plus-k", 60, "241"),
]


@pytest.mark.parametrize("kind,n,scheme", ADDER_CASES)
@pytest.mark.parametrize("carry_in,carry_out", CARRIES)
def test_expected_outputs_matches_big_int(kind, n, scheme, carry_in, carry_out):
    rng = np.random.default_rng(n)
    plus_k = kind.endswith("plus-k")
    ks = [0, (1 << n) - 1, int(rng.integers(0, 1 << n))] if plus_k else [None]
    for k in ks:
        argv = ["verify", "--kind", kind, "--n", str(n), "--scheme", scheme, "--samples", "1"]
        argv += ["--carry-in"] * carry_in + ["--carry-out"] * carry_out + (["--k", str(k)] if plus_k else [])
        args = cli.make_parser().parse_args(argv)
        circ, layout = cli.build_kind(args)
        ins = oracle.adder_inputs(layout, circ.width, rng, 200)
        exp = cli.expected_outputs(kind, k, layout, oracle.to_levels(ins, circ.dims))
        assert (oracle.from_levels(exp) == oracle.adder_outputs(layout, ins, k)).all()


@pytest.mark.parametrize("kind,table", [("compress231", cli.TABLE_231), ("compress241", cli.TABLE_241)], ids=["231", "241"])
def test_expected_outputs_matches_compressor_tables(kind, table):
    # Every table row, repeated past one 64-row word.
    ins = np.array(list(table) * 20)
    exp = cli.expected_outputs(kind, None, None, oracle.to_levels(ins, (2,) * ins.shape[1]))
    assert [tuple(row) for row in oracle.from_levels(exp).tolist()] == [table[tuple(row)] for row in ins.tolist()]
