import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radixcirc import block_builder as bb
from radixcirc import cli, ir

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
    assert out == a.read_text() and err.startswith("kind=cla-adder width=")


def test_build_block_writes_plan_sidecar(tmp_path):
    out = tmp_path / "blk.json"
    assert run_cli("build", "--kind", "block-adder", "--n", "12", "--scheme", "241", "--out", str(out)) == 0
    plan = json.loads((tmp_path / "blk.plan.json").read_text())
    assert plan["mode"] == "a+b" and plan["scheme"] == "2-4-1"
    assert plan["n"] == 12 and plan["c"] == 4
    assert len(plan["blocks"]) == 4 and len(plan["carry_slots"]) == 3
    circ = ir.loads(out.read_text())
    assert circ.width == 24


def test_build_infeasible_exits_2(tmp_path, capsys):
    rc = run_cli("build", "--kind", "block-adder", "--n", "29", "--scheme", "231", "--out", str(tmp_path / "x.json"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "infeasible" in err and "2n/c + c - 1" in err
    # c=13 meets the worst-case bound (16 >= 16) and fails the exact accounting
    assert run_cli("build", "--kind", "block-adder", "--n", "26", "--scheme", "231") == 2
    err = capsys.readouterr().err
    assert "c=13: accounting 12 ancilla per step < 14 needed" in err
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


def test_verify_adders():
    assert run_cli("verify", "--kind", "cla-adder", "--n", "3", "--carry-in", "--carry-out", "--exhaustive") == 0
    assert run_cli("verify", "--kind", "ripple-adder", "--n", "3", "--exhaustive") == 0
    assert run_cli("verify", "--kind", "plus-k", "--n", "4", "--k", "9", "--exhaustive") == 0


def test_verify_sampled_block(capsys):
    rc = run_cli("verify", "--kind", "block-adder", "--n", "12", "--scheme", "241",
                 "--samples", "40", "--seed", "7", "--carry-in", "--carry-out")
    assert rc == 0
    assert "PASS block-adder: 40 cases" in capsys.readouterr().out


def test_verify_corrupted_circuit_exits_1(tmp_path, capsys):
    out = tmp_path / "c.json"
    run_cli("build", "--kind", "compress241", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["gates"] = doc["gates"][:-1]  # drop the last clearing gate
    out.write_text(json.dumps(doc))
    rc = run_cli("verify", "--kind", "compress241", "--exhaustive", "--circuit", str(out))
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_circuit_of_other_scheme_exits_2(tmp_path, capsys):
    # Same width, different wire dims: a 2-3-1 block adder is not a 2-4-1 one.
    out = tmp_path / "b.json"
    run_cli("build", "--kind", "block-adder", "--n", "30", "--scheme", "231", "--carry-out", "--out", str(out))
    flags = ["--kind", "block-adder", "--n", "30", "--carry-out", "--samples", "500", "--circuit", str(out)]
    assert run_cli("verify", *flags, "--scheme", "231") == 0
    assert run_cli("verify", *flags, "--scheme", "241") == 2
    assert "wire dims do not match" in capsys.readouterr().err


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
    capsys.readouterr()
    assert run_cli("stats", str(out)) == 0
    doc = json.loads(capsys.readouterr().out)
    # 3 compressed blocks of 6 wires, one generated ancilla per 2-wire group
    assert doc["ancilla_generated"] == 9


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


@pytest.mark.parametrize("field,value", [("n", "12"), ("n", True), ("c", 0), ("c", 13), ("c", 5), ("c", 6), ("mode", "a-b"),
                                         ("mode", ["a+b"])])
def test_stats_malformed_plan_sidecar_exits_2(tmp_path, field, value):
    out = tmp_path / "blk.json"
    run_cli("build", "--kind", "block-adder", "--n", "12", "--scheme", "241", "--out", str(out))
    sidecar = tmp_path / "blk.plan.json"
    plan = json.loads(sidecar.read_text())
    plan[field] = value
    sidecar.write_text(json.dumps(plan))
    assert run_cli("stats", str(out)) == 2


ONE_GATE = {"kind": "flip", "targets": [0], "params": [0, 1], "controls": []}
WIRE = {"name": "a", "dim": 2}


@pytest.mark.parametrize("doc,plan", [
    pytest.param({"wires": [WIRE], "gates": [{**ONE_GATE, "targets": 0}]}, None, id="targets-int"),
    pytest.param({"wires": [WIRE, WIRE], "gates": [{**ONE_GATE, "controls": [5]}]}, None, id="control-int"),
    pytest.param({"wires": {"a": WIRE}, "gates": []}, None, id="wires-object"),
    pytest.param([1, 2], None, id="top-level-list"),
    pytest.param({"wires": [WIRE], "gates": [7]}, None, id="gate-int"),
    pytest.param({"wires": [WIRE], "gates": [ONE_GATE]}, [], id="plan-list"),
])
def test_stats_malformed_document_exits_2(tmp_path, capsys, doc, plan):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    if plan is not None:
        (tmp_path / "c.plan.json").write_text(json.dumps(plan))
    assert run_cli("stats", str(path)) == 2
    assert "error: " in capsys.readouterr().err


def test_stats_rejects_sidecar_of_other_circuit(tmp_path, capsys):
    small, big = tmp_path / "small.json", tmp_path / "big.json"
    run_cli("build", "--kind", "block-adder", "--n", "12", "--scheme", "241", "--out", str(small))
    run_cli("build", "--kind", "block-adder", "--n", "30", "--scheme", "231", "--out", str(big))
    capsys.readouterr()
    assert run_cli("stats", str(small), "--plan", str(tmp_path / "big.plan.json")) == 2
    assert "60 register wires of dim 3" in capsys.readouterr().err
    assert run_cli("stats", str(big), "--plan", str(tmp_path / "small.plan.json")) == 2
    assert run_cli("stats", str(small), "--plan", str(tmp_path / "small.plan.json")) == 0
    # an explicit --plan must exist; only the default <circuit>.plan.json is optional
    assert run_cli("stats", str(small), "--plan", str(tmp_path / "nope.json")) == 2


def test_stats_checks_sidecar_fits_circuit_before_planning(tmp_path, monkeypatch, capsys):
    # c=4 divides n=10^16, so the plan is valid; planning it would scan 10^8 divisor candidates.
    out = tmp_path / "blk.json"
    run_cli("build", "--kind", "block-adder", "--n", "12", "--scheme", "241", "--out", str(out))
    sidecar = tmp_path / "blk.plan.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n": 10**16}))
    calls = []
    monkeypatch.setattr(bb, "plan_blocks", lambda *args: calls.append(args))
    assert run_cli("stats", str(out)) == 2
    assert calls == [] and "register wires" in capsys.readouterr().err


def test_stats_sidecar_lacking_a_field_exits_2(tmp_path, capsys):
    out = tmp_path / "blk.json"
    run_cli("build", "--kind", "block-adder", "--n", "12", "--scheme", "241", "--out", str(out))
    sidecar = tmp_path / "blk.plan.json"
    plan = json.loads(sidecar.read_text())
    del plan["scheme"]
    sidecar.write_text(json.dumps(plan))
    assert run_cli("stats", str(out)) == 2
    assert "lacks 'scheme'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["build", "--kind", "plus-k", "--n", "4", "--k", "-1"], id="plus-k-negative"),
    pytest.param(["verify", "--kind", "plus-k", "--n", "4", "--k", "16", "--exhaustive"], id="plus-k-too-wide"),
    pytest.param(["build", "--kind", "block-plus-k", "--n", "60", "--scheme", "241", "--k", "-1"], id="block-plus-k-negative"),
    pytest.param(["build", "--kind", "block-adder", "--n", "30", "--scheme", "259"], id="unknown-scheme"),
    pytest.param(["verify", "--kind", "compress231", "--samples", "5", "--seed", "-3"], id="negative-seed"),
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
@pytest.mark.parametrize("carry_in,carry_out", [(False, False), (False, True), (True, False), (True, True)])
def test_expected_outputs_matches_big_int(kind, n, scheme, carry_in, carry_out):
    rng = np.random.default_rng(n)
    plus_k = kind.endswith("plus-k")
    ks = [0, (1 << n) - 1, int(rng.integers(0, 1 << n))] if plus_k else [None]
    for k in ks:
        argv = ["verify", "--kind", kind, "--n", str(n), "--scheme", scheme, "--samples", "1"]
        argv += ["--carry-in"] * carry_in + ["--carry-out"] * carry_out + (["--k", str(k)] if plus_k else [])
        args = cli.make_parser().parse_args(argv)
        _, plan = cli.build_kind(args)
        layout = cli.register_layout(args, plan)
        ins = oracle.adder_inputs(layout, layout.width, rng, 200)
        assert (cli.expected_outputs(kind, args, layout, ins) == oracle.adder_outputs(layout, ins, k)).all()
