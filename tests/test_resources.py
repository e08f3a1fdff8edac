from radixcirc import compress as cmp
from radixcirc import ir, resources
from radixcirc.ir import Wire


def test_empty_circuit_reports_zeros():
    r = resources.report(ir.new_circuit([ir.Wire(n, 2) for n in "ab"]))
    assert r.total_gates == 0
    assert r.depth == 0
    assert r.max_dim_touched == 0
    assert r.gate_counts == {}


def test_report_buckets_by_arity_and_dim():
    wires = [Wire("a", 2), Wire("b", 3), Wire("c", 4)]
    c = ir.new_circuit(wires)
    ir.extend(c, [
        ir.x(0),                          # arity 1, dim 2
        ir.incr(1, 1, [(0, 1)]),          # arity 2, dim 3
        ir.flip(2, 0, 1, [(0, 1), (1, 2)]),  # arity 3, dim 4
        ir.flip(0, 0, 1, [(2, 3)]),       # arity 2, dim 4 (touches the ququart)
    ])
    r = resources.report(c)
    assert r.gate_counts == {(1, 2): 1, (2, 3): 1, (3, 4): 1, (2, 4): 1}
    assert r.total_gates == 4
    assert r.max_dim_touched == 4
    assert r.depth == ir.depth(c)


def test_report_241_three_two_qudit_gates():
    r = resources.report(cmp.build_compress_241())
    assert r.gate_counts == {(2, 4): 3}


def test_expand_cost_model_counts():
    r = resources.report(cmp.build_compress_231())
    assert r.count_by_arity(3) == 1
    e = resources.expand_cost_model(r)
    assert e.count_by_arity(3) == 0
    assert e.count_by_arity(2) == 6 + 6
    assert e.count_by_arity(1) == 10
    assert e.total_gates == r.total_gates + 15
    assert not e.depth_exact and e.depth == r.depth


def test_expand_cost_model_idempotent_without_arity3():
    r = resources.report(cmp.build_compress_241())
    assert resources.expand_cost_model(r) is r


def test_expand_cost_model_linear():
    wires = [ir.Wire(n, 2) for n in "abcd"]
    c = ir.new_circuit(wires)
    ir.extend(c, [ir.ccx(0, 1, 2), ir.ccx(1, 2, 3)])
    e = resources.expand_cost_model(resources.report(c))
    assert e.count_by_arity(2) == 12
    assert e.count_by_arity(1) == 20


def test_json_and_csv_serialization():
    r = resources.report(cmp.build_compress_231(), ancilla_generated=1)
    d = r.to_dict()
    assert d["width"] == 3 and d["ancilla_generated"] == 1
    assert sum(e["count"] for e in d["gate_counts"]) == r.total_gates
    header = resources.csv_header().split(",")
    assert header == list(resources.CSV_FIELDS)
    for report in (r, resources.expand_cost_model(r)):
        row = dict(zip(header, resources.to_csv_row(report).split(","), strict=True))
        assert row["width"] == "3" and row["ancilla_generated"] == "1"
        assert int(row["total_gates"]) == report.total_gates
