import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radixcirc import block_builder as bb
from radixcirc import compress as cmp
from radixcirc import ir
from radixcirc import qubit_adders as qa

import oracle

THRESHOLDS = [
    (bb.MODE_AB, cmp.SCHEME_231, 30, 5),
    (bb.MODE_AB, cmp.SCHEME_231, 29, None),
    (bb.MODE_AB, cmp.SCHEME_241, 12, 4),
    (bb.MODE_AB, cmp.SCHEME_241, 11, None),
    (bb.MODE_PLUS_K, cmp.SCHEME_231, 168, 8),
    (bb.MODE_PLUS_K, cmp.SCHEME_231, 167, None),
    (bb.MODE_PLUS_K, cmp.SCHEME_241, 60, 6),
    (bb.MODE_PLUS_K, cmp.SCHEME_241, 59, None),
]


@pytest.mark.parametrize("mode,scheme,n,c", THRESHOLDS)
def test_plan_thresholds(mode, scheme, n, c):
    plan = bb.plan_blocks(mode, scheme, n)
    if c is None:
        assert plan is None
    else:
        assert plan is not None and plan.c == c


def test_plan_blocks_bad_args():
    with pytest.raises(ValueError):
        bb.plan_blocks("mystery", cmp.SCHEME_231, 30)
    with pytest.raises(ValueError):
        bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_231, 0)


def test_plan_scan_visits_divisors_only():
    # A prime n has no block count; a scan over every c up to n took 0.1 s here.
    n = 2_000_003
    for fn in (bb.plan_blocks, bb.infeasible_reason):
        t0 = time.perf_counter()
        fn(bb.MODE_AB, cmp.SCHEME_231, n)
        assert time.perf_counter() - t0 < 0.05
    assert bb.infeasible_reason(bb.MODE_AB, cmp.SCHEME_231, n).endswith("; c=2000003: bound 1333334 < 2000004")


def test_plan_geometry_and_sidecar():
    plan = bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_241, 12)
    assert (plan.c, plan.block_bits, plan.block_wires) == (4, 3, 6)
    assert plan.blocks[0] == [0, 1, 2, 3, 4, 5]
    assert plan.blocks[3] == [18, 19, 20, 21, 22, 23]
    assert len(plan.carry_slots) == plan.c - 1
    # a carry slot is an ancilla of its own block
    for j, slot in enumerate(plan.carry_slots):
        assert slot in plan.block_layouts[j].ancilla


def test_plan_rejects_block_count_not_dividing_n():
    # n=13, c=4 used to build an adder that ignored the top bit: 4096 + 4096 gave 4096.
    with pytest.raises(ValueError, match="c dividing n"):
        bb.BlockPlan(bb.MODE_AB, cmp.SCHEME_241, 13, 4)


@pytest.mark.parametrize("field,value", [("n", "12"), ("n", True), ("c", 0), ("c", 13), ("c", 5), ("mode", "a-b"),
                                         ("mode", ["a+b"])])
def test_plan_rejects_malformed_fields(field, value):
    fields = {"mode": bb.MODE_AB, "scheme": cmp.SCHEME_241, "n": 12, "c": 4, field: value}
    with pytest.raises(ValueError):
        bb.BlockPlan(**fields)


def test_plan_layout_built_once_per_carry_variant():
    plan = bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_241, 12)
    layouts = {(ci, co): plan.layout(ci, co) for ci in (False, True) for co in (False, True)}
    for (ci, co), layout in layouts.items():
        assert plan.layout(ci, co) is layout
        assert (layout.carry_in is not None, layout.carry_out is not None) == (ci, co)
    assert plan.layout() is layouts[False, False]
    # the cache is not part of the plan's value
    fresh = bb.BlockPlan(plan.mode, plan.scheme, plan.n, plan.c)
    assert plan == fresh and hash(plan) == hash(fresh)


def test_feasibility_checks_agree_at_thresholds():
    for mode, scheme, n, c in THRESHOLDS:
        if c is None:
            continue
        lhs, rhs = bb.worst_case_sides(mode, scheme, n, c)
        assert lhs >= rhs
        assert bb.exact_accounting(bb.BlockPlan(mode, scheme, n, c))


@pytest.mark.parametrize("carry_in,carry_out", [(False, False), (True, False), (False, True), (True, True)])
def test_block_adder_241_n12(carry_in, carry_out):
    plan = bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_241, 12)
    circ = bb.build_block_adder(plan, carry_in, carry_out)
    assert circ.width == 24 + carry_in + carry_out
    layout = plan.layout(carry_in, carry_out)
    ins = oracle.adder_inputs(layout, circ.width, np.random.default_rng(5), 100)
    out, _ = oracle.run_rows(circ, ins)
    assert (out == oracle.adder_outputs(layout, ins)).all()


@pytest.mark.parametrize("carry_in,carry_out", [(False, False), (True, True)])
def test_block_plus_k_241_n60(carry_in, carry_out):
    plan = bb.plan_blocks(bb.MODE_PLUS_K, cmp.SCHEME_241, 60)
    k = 0x9E3779B97F4A7C1 % (1 << 60)
    circ = bb.build_block_plus_k(plan, k, carry_in, carry_out)
    assert circ.width == 60 + carry_in + carry_out
    layout = plan.layout(carry_in, carry_out)
    ins = oracle.adder_inputs(layout, circ.width, np.random.default_rng(6), 60)
    out, _ = oracle.run_rows(circ, ins)
    assert (out == oracle.adder_outputs(layout, ins, k)).all()


def test_block_adder_edge_values():
    plan = bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_231, 30)
    circ = bb.build_block_adder(plan, carry_in=True, carry_out=True)
    n = 30
    for a, b, cin in [(0, 0, 0), ((1 << n) - 1, (1 << n) - 1, 1), ((1 << n) - 1, 1, 0), (0, 0, 1)]:
        out, _ = oracle.run_rows(circ, np.array([bb.encode_input(plan, b, a, cin, True, True)]))
        a_out, s_out, cout = bb.decode_output(plan, out[0], True, True)
        tot = a + b + cin
        assert (a_out, s_out, cout) == (a, tot % (1 << n), tot >> n)


def test_readme_quick_tour():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(tour, scope)  # runs the tour's own decode assertion
    assert scope["plan"].c == 5
    assert scope["circ"].dims == (3,) * 60 + (2,)  # the register, then the carry-out qubit


def test_mode_mismatch_rejected():
    plan = bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_241, 12)
    with pytest.raises(ValueError):
        bb.build_block_plus_k(plan, 3)
    kplan = bb.plan_blocks(bb.MODE_PLUS_K, cmp.SCHEME_241, 60)
    with pytest.raises(ValueError):
        bb.build_block_adder(kplan)
    with pytest.raises(ValueError):
        bb.build_block_plus_k(kplan, 1 << 60)


@pytest.mark.parametrize("values", [
    pytest.param({"b_value": 4096}, id="b-too-wide"),
    pytest.param({"b_value": -1}, id="b-negative"),
    pytest.param({"b_value": 0, "a_value": 8192}, id="a-too-wide"),
    pytest.param({"b_value": 0, "cin": 1}, id="cin-without-wire"),
    pytest.param({"b_value": 0, "cin": 2, "carry_in": True}, id="cin-not-a-bit"),
])
def test_encode_input_rejects_values_that_do_not_fit(values):
    plan = bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_241, 12)
    with pytest.raises(ValueError):
        bb.encode_input(plan, **values)
    top = (1 << 12) - 1
    assert bb.encode_input(plan, b_value=top, a_value=top, cin=1, carry_in=True) == [1] * 25


def test_encode_input_plus_k_takes_no_a_value():
    plan = bb.plan_blocks(bb.MODE_PLUS_K, cmp.SCHEME_241, 60)
    with pytest.raises(ValueError):
        bb.encode_input(plan, b_value=5, a_value=3)
    assert bb.encode_input(plan, b_value=5, a_value=0) == bb.encode_input(plan, b_value=5)


def test_infeasible_plan_rejected_by_builder():
    plan = bb.BlockPlan(bb.MODE_AB, cmp.SCHEME_231, 30, 15)
    assert not bb.exact_accounting(plan)
    with pytest.raises(bb.InfeasiblePlan):
        bb.build_block_adder(plan)


def test_intermediate_digits_bounded_by_scheme():
    for scheme, bound, n in [(cmp.SCHEME_231, 2, 30), (cmp.SCHEME_241, 3, 12)]:
        plan = bb.plan_blocks(bb.MODE_AB, scheme, n)
        circ = bb.build_block_adder(plan)
        rng = np.random.default_rng(4)
        states = [
            bb.encode_input(plan, int(rng.integers(0, 1 << 30)) % (1 << n), int(rng.integers(0, 1 << 30)) % (1 << n))
            for _ in range(50)
        ]
        _, max_digit = oracle.run_rows(circ, np.array(states), track_max=True)
        assert max_digit <= bound


def test_inverse_block_adder_round_trip():
    plan = bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_241, 12)
    circ = bb.build_block_adder(plan, carry_in=True, carry_out=True)
    both = oracle.forward_then_inverse(circ)
    rng = np.random.default_rng(10)
    states = rng.integers(0, 2, size=(100, circ.width))
    out, _ = oracle.run_rows(both, states)
    assert (out == states).all()


@pytest.mark.parametrize("carry_in,carry_out", [(False, False), (True, False), (False, True), (True, True)])
def test_block_adder_231_depth_matches_readme(carry_in, carry_out):
    # README: 213 without and 218 with a carry-out at n=30; 292 and 301 at n=240.
    for n, depth in [(30, 218 if carry_out else 213), (240, 301 if carry_out else 292)]:
        plan = bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_231, n)
        assert ir.depth(bb.build_block_adder(plan, carry_in, carry_out)) == depth


def test_build_makes_each_compressor_and_sub_adder_once(monkeypatch):
    calls = {"block_gates": 0, "cla_gates": 0, "carry_out_gates": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cmp, "block_gates", counted("block_gates", cmp.block_gates))
    monkeypatch.setattr(bb, "cla_gates", counted("cla_gates", bb.cla_gates))
    monkeypatch.setattr(bb, "carry_out_gates", counted("carry_out_gates", bb.carry_out_gates))
    for plan, build in [
        (bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_231, 240), lambda p: bb.build_block_adder(p, carry_out=True)),
        (bb.plan_blocks(bb.MODE_PLUS_K, cmp.SCHEME_241, 60), lambda p: bb.build_block_plus_k(p, 12345, True, True)),
    ]:
        calls.update(block_gates=0, cla_gates=0, carry_out_gates=0)
        build(plan)
        assert calls == {"block_gates": plan.c, "cla_gates": plan.c, "carry_out_gates": plan.c - 1}


def test_built_adders_hold_one_gate_object_per_distinct_gate():
    # The +K 2-4-1 adder's decompressors come from ir.invert_gates, which shares objects too.
    for distinct, circ in [
        (2517, bb.build_block_adder(bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_231, 240), carry_out=True)),
        (1568, bb.build_block_plus_k(bb.plan_blocks(bb.MODE_PLUS_K, cmp.SCHEME_241, 240), int("10" * 120, 2), True, True)),
    ]:
        assert len({id(g) for g in circ.gates}) == len(set(circ.gates)) == distinct < len(circ.gates)


@pytest.mark.parametrize("build", [
    lambda: bb.build_block_adder(bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_231, 30), True, True),
    lambda: bb.build_block_plus_k(bb.plan_blocks(bb.MODE_PLUS_K, cmp.SCHEME_241, 60), 5, True, True),
    lambda: qa.build_cla_adder(8, True, True), lambda: qa.build_plus_k(8, 5, True, True),
    lambda: qa.build_ripple_adder(8, True, True), cmp.build_compress_231, cmp.build_compress_241,
], ids=["block-adder", "block-plus-k", "cla-adder", "plus-k", "ripple-adder", "compress231", "compress241"])
def test_gate_table_is_empty_after_every_builder(build):
    # Scoped to one build, the table keeps no gate between builds, so a later build pays in full.
    ir.cx(0, 1)
    assert ir.gate.cache_info().currsize > 0
    build()
    assert ir.gate.cache_info().currsize == 0


def test_validation_runs_once_per_distinct_gate(monkeypatch):
    # Building and loading a block adder validate each distinct gate once, however often it is used.
    calls = []
    validate = ir.Circuit.validate_gate
    monkeypatch.setattr(ir.Circuit, "validate_gate", lambda self, g: calls.append(g) or validate(self, g))
    for n in (60, 240):
        calls.clear()
        circ = bb.build_block_adder(bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_231, n), carry_out=True)
        assert len(calls) == len(set(circ.gates)) < len(circ.gates) / 3
        calls.clear()
        ir.loads(ir.dumps(circ))
        assert len(calls) == len(set(circ.gates))


# Every feasible plan up to n=240: both modes, both schemes.
FEASIBLE = [plan for mode in (bb.MODE_AB, bb.MODE_PLUS_K) for scheme in (cmp.SCHEME_231, cmp.SCHEME_241)
            for n in range(1, 241) if (plan := bb.plan_blocks(mode, scheme, n)) is not None]
CARRIES = [(False, False), (True, False), (False, True), (True, True)]


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.sampled_from(FEASIBLE), st.sampled_from(CARRIES), st.integers(0, 2**32 - 1))
def _plan_space_property(plan, carries, seed):
    carry_in, carry_out = carries
    n, rng = plan.n, np.random.default_rng(seed)
    assert bb.exact_accounting(plan)
    lhs, rhs = bb.worst_case_sides(plan.mode, plan.scheme, n, plan.c)
    assert lhs >= rhs

    ab = plan.mode == bb.MODE_AB
    k = None if ab else int.from_bytes(rng.bytes((n + 7) // 8), "little") % (1 << n)
    circ = bb.build_block_adder(plan, carry_in, carry_out) if ab else bb.build_block_plus_k(plan, k, carry_in, carry_out)
    assert ir.cancel_inverses(circ.gates, circ.dims) == circ.gates
    layout = plan.layout(carry_in, carry_out)
    ins = oracle.adder_inputs(layout, circ.width, rng, 8)
    out, max_digit = oracle.run_rows(circ, ins, track_max=True)
    assert max_digit <= plan.scheme.y - 1
    assert (out == oracle.adder_outputs(layout, ins, k)).all()

    digits = rng.integers(0, np.array(circ.dims), size=(8, circ.width))
    back, _ = oracle.run_rows(oracle.forward_then_inverse(circ), digits)
    assert (back == digits).all()


def test_plan_of_reads_each_feasible_plan_off_its_wires():
    for i, plan in enumerate(FEASIBLE):
        carry_in, carry_out = CARRIES[i % len(CARRIES)]
        assert bb.plan_of(plan.layout(carry_in, carry_out).new_circuit(plan.scheme.y)) == plan
    assert bb.plan_of(ir.new_circuit([])) is None


def test_block_steps_touch_every_reserved_ancilla(monkeypatch):
    # Each step's sub-adder, given a carry-out, touches every ancilla its wiring reserves,
    # and that carry-out is a pool wire of its own.
    steps, cla_gates = [], bb.cla_gates

    def recorded(wiring, k=None):
        steps.append((wiring, cla_gates(wiring, k)))
        return steps[-1][1]

    monkeypatch.setattr(bb, "cla_gates", recorded)
    for plan in [p for p in FEASIBLE if p.n <= 60]:
        steps.clear()
        if plan.mode == bb.MODE_AB:
            bb.build_block_adder(plan, carry_out=True)
        else:
            bb.build_block_plus_k(plan, (1 << plan.n) // 3, carry_out=True)
        assert len(steps) == plan.c
        for wiring, gates in steps:
            touched = {w for g in gates for w in g.wires()} & set(wiring.ancilla)
            assert touched == set(wiring.ancilla), plan
            assert wiring.carry_out not in wiring.ancilla, plan


def test_property_block_adder_over_plan_space():
    assert len(FEASIBLE) == 535
    # The whole property run stays inside a 15 s budget of the tier-1 suite.
    t0 = time.perf_counter()
    _plan_space_property()
    assert time.perf_counter() - t0 < 15
