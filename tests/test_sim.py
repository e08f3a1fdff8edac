import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radixcirc import block_builder as bb
from radixcirc import compress as cmp
from radixcirc import ir, sim
from radixcirc.ir import Wire
from radixcirc.qubit_adders import build_cla_adder

import oracle


def mixed_circuit():
    wires = [Wire("a", 2), Wire("b", 3), Wire("c", 4)]
    c = ir.new_circuit(wires)
    ir.extend(c, [
        ir.incr(1, 1, [(0, 1)]),
        ir.flip(2, 0, 3),
        ir.incr(2, 2, [(1, 2)]),
        ir.x(0, [(2, 3)]),
    ])
    return c


def test_basis_state_validation():
    c = mixed_circuit()
    with pytest.raises(ValueError):
        sim.basis_state(c, [0, 3, 0])
    with pytest.raises(ValueError):
        sim.basis_state(c, [0, 0])
    for digit in (1.0, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            sim.basis_state(c, [0, digit, 0])
    s = sim.basis_state(c, [1, 2, 3])
    assert s.digits == (1, 2, 3)
    # numpy integers are digits
    assert sim.run(c, sim.basis_state(c, np.array([1, 1, 0]))).digits == (1, 2, 1)


def run_one_gate(gate, digits):
    """``digits`` after ``gate`` alone, on the wires of ``mixed_circuit``."""
    c = ir.extend(ir.new_circuit(mixed_circuit().wires), [gate])
    return sim.run(c, sim.basis_state(c, digits)).digits


def test_apply_gate_control_gating():
    # control a=1 not met: identity
    assert run_one_gate(ir.incr(1, 1, [(0, 1)]), [0, 0, 0]) == (0, 0, 0)
    assert run_one_gate(ir.incr(1, 1, [(0, 1)]), [1, 0, 0]) == (1, 1, 0)


def test_increment_wraps_modulo_dim():
    assert run_one_gate(ir.incr(1, 2), [0, 2, 3])[1] == 1
    assert run_one_gate(ir.incr(2, 1), [0, 2, 3])[2] == 0


def test_swap_gate():
    wires = [Wire("a", 3), Wire("b", 3)]
    c = ir.new_circuit(wires)
    ir.extend(c, [ir.swap(0, 1)])
    assert sim.run(c, sim.basis_state(c, [2, 1])).digits == (1, 2)


def test_run_is_permutation_on_full_space():
    c = mixed_circuit()
    table = {s.digits: sim.run(c, s).digits for s in oracle.all_basis_states(c)}
    assert len(table) == 24
    assert len(set(table.values())) == 24


def test_interface_states_honor_bounds():
    wires = [Wire("a", 3), Wire("b", 3)]
    c = ir.new_circuit(wires)
    assert len(list(oracle.interface_states(c))) == 4
    assert len(list(oracle.all_basis_states(c))) == 9


def test_run_batch_matches_scalar_run():
    c = mixed_circuit()
    states = np.array([s.digits for s in oracle.all_basis_states(c)])
    out, max_digit = oracle.run_rows(c, states, track_max=True)
    for row_in, row_out in zip(states, out):
        assert tuple(row_out) == sim.run(c, sim.basis_state(c, row_in)).digits
    assert max_digit == 3
    with pytest.raises(ValueError, match="expected"):
        sim.run_batch(c, oracle.to_levels(states[:, :2], c.dims[:2]))


@pytest.mark.parametrize("row,wire", [
    pytest.param([1, 3, 0, 0], 1, id="level-3-on-a-qutrit"),
    pytest.param([0, 0, 0, 2], 3, id="level-2-on-a-qubit"),
])
def test_run_batch_rejects_digits_outside_dim(row, wire):
    # Wire 3 (dim 2) is untouched by the gates of mixed_circuit.
    c = ir.extend(ir.new_circuit(mixed_circuit().wires + (Wire("d", 2),)), mixed_circuit().gates)
    rows = np.array([[0, 0, 0, 0], row, [1, 2, 3, 1]])
    # Every wire lists a level for each digit it holds, so ``wire`` lists one above its dim.
    states = oracle.to_levels(rows, [max(dim, d + 1) for dim, d in zip(c.dims, rows.max(axis=0))])
    with pytest.raises(ValueError, match=f"^wire {wire} lists"):
        sim.run_batch(c, states)


@pytest.mark.parametrize("wire,levels,column", [
    pytest.param(1, [0b001, 0b010, 0], None, id="row-in-no-level"),
    pytest.param(2, [0b001, 0b010, 0, 0b110], None, id="row-in-two-levels"),
    pytest.param(0, [0b001, 0b110, 0], None, id="dim-plus-1-levels"),
    pytest.param(1, [0b001, np.int64(2), 0b100], None, id="level-not-an-int"),
    pytest.param(2, [0b101, 0b010], [0, 1, 0], id="fewer-levels-than-dim"),
    pytest.param(1, [0b1001, 0b010, 0b100], None, id="bit-n-set"),
    pytest.param(0, [-1], None, id="negative-level"),
])
def test_run_batch_level_set_rules(wire, levels, column):
    # Bit r of each level is row r; ``column`` is what the levels hold, or None when they break a rule.
    c = mixed_circuit()
    rows = np.array([[0, 0, 0], [1, 1, 1], [1, 2, 3]])
    states = oracle.to_levels(rows, c.dims)
    states.wires[wire] = levels
    before = [list(lv) for lv in states.wires]
    if column is None:
        with pytest.raises(ValueError, match=f"^wire {wire} "):
            sim.run_batch(c, states)
    else:
        rows[:, wire] = column
        assert (oracle.from_levels(sim.run_batch(c, states)[0]) == oracle.run_rows(c, rows)[0]).all()
    assert states.wires == before


@pytest.mark.parametrize("row", [
    pytest.param([0, 0, -1], id="negative-on-a-ququart"),
    pytest.param([0, 4, 0], id="4-on-a-qutrit"),
    pytest.param([0, 3, 0], id="3-on-a-qutrit"),
])
def test_to_levels_rejects_digits_outside_dim(row):
    # Without the check, each of these digits would be in no level of its wire.
    with pytest.raises(ValueError, match="outside"):
        oracle.to_levels(np.array([[1, 2, 3], row]), mixed_circuit().dims)


@pytest.mark.parametrize("level", [
    pytest.param(np.ones(1, np.uint64), id="one-uint64-word-for-200-rows"),
    pytest.param(np.int64(1), id="int64"),
    pytest.param(1.0, id="float"),
])
def test_run_batch_rejects_planes_that_are_not_ints(level):
    c = mixed_circuit()
    states = oracle.to_levels(np.array([[1, 2, 3]] * 200), c.dims)
    states.wires[0][1] = level
    with pytest.raises(ValueError, match="wire 0 "):
        sim.run_batch(c, states)


def test_statevector_agrees_with_basis_run():
    c = mixed_circuit()
    for s in oracle.all_basis_states(c):
        v = oracle.run_statevector(c, oracle.statevector_from_basis(s))
        expect = oracle.statevector_from_basis(sim.run(c, s))
        assert np.allclose(v.amps, expect.amps)


def test_statevector_preserves_norm_on_superposition():
    c = mixed_circuit()
    v = oracle.run_statevector(c, oracle.uniform_statevector(c))
    assert v.norm_sq == pytest.approx(1.0)


def test_statevector_cap():
    wires = [Wire(f"q{i}", 4) for i in range(11)]  # 4^11 > 2^20
    c = ir.new_circuit(wires)
    with pytest.raises(ValueError):
        oracle.run_statevector(c, oracle.Statevector(np.zeros(4 ** 11, dtype=complex), c.dims))


@st.composite
def circuits(draw, max_dim=5):
    """Up to 8 gates on 2-4 wires of dims 2 to ``max_dim``: flips, increments, swaps
    between equal-dim wires, each with 0-2 controls on any digit value."""
    dims = draw(st.lists(st.integers(2, max_dim), min_size=2, max_size=4))
    wires = [Wire(f"q{i}", d) for i, d in enumerate(dims)]
    c = ir.new_circuit(wires)
    for _ in range(draw(st.integers(0, 8))):
        t = draw(st.integers(0, len(dims) - 1))
        partners = [w for w in range(len(dims)) if w != t and dims[w] == dims[t]]
        kind = draw(st.sampled_from(["flip", "incr", "swap"] if partners else ["flip", "incr"]))
        if kind == "flip":
            i = draw(st.integers(0, dims[t] - 1))
            j = draw(st.integers(0, dims[t] - 1).filter(lambda v: v != i))
            g = ir.flip(t, i, j)
        elif kind == "incr":
            g = ir.incr(t, draw(st.integers(1, dims[t] - 1)))
        else:
            g = ir.swap(t, draw(st.sampled_from(partners)))
        pool = [w for w in range(len(dims)) if w not in g.targets]
        ctrl_wires = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True)) if pool else []
        controls = tuple((w, draw(st.integers(0, dims[w] - 1))) for w in ctrl_wires)
        ir.extend(c, [ir.Gate(g.kind, g.targets, g.params, controls)])
    return c


@st.composite
def circuit_and_state(draw):
    c = draw(circuits())
    return c, tuple(draw(st.integers(0, d - 1)) for d in c.dims)


@st.composite
def circuit_and_batch(draw):
    """A circuit on wires of dims 2-9 and a batch: empty, one row, row counts on
    both sides of 64 and 128, and 1089 rows.  Digits stay below ``high`` so the
    gates, not the inputs, often set the largest digit."""
    c = draw(circuits(max_dim=9))
    n = draw(st.sampled_from([0, 1, 63, 64, 65, 129, 1089]))
    high = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return c, rng.integers(0, np.minimum(c.dims, high), size=(n, c.width))


@settings(max_examples=60, deadline=None)
@given(circuit_and_state())
def test_property_inverse_round_trip(cs):
    c, digits = cs
    s = sim.basis_state(c, digits)
    inv = ir.extend(ir.new_circuit(c.wires), ir.invert_gates(c.gates, c.dims))
    assert sim.run(inv, sim.run(c, s)) == s


@settings(max_examples=60, deadline=None)
@given(circuit_and_state())
def test_property_batch_and_statevector_agree(cs):
    c, digits = cs
    s = sim.basis_state(c, digits)
    out = sim.run(c, s)
    batch, _ = oracle.run_rows(c, np.array([digits]))
    assert tuple(batch[0]) == out.digits
    v = oracle.run_statevector(c, oracle.statevector_from_basis(s))
    assert v.amps[oracle.state_index(out.digits, c.dims)] == pytest.approx(1.0)


class Bits:
    """A level set that defines only ``&``, ``|`` and ``^`` (no ``~``): all that
    ``sim.run_gates`` may ask of an operand, as a BDD node class would offer."""

    def __init__(self, v: int):
        self.v = v

    def __and__(self, o):
        return type(self)(self.v & o.v)

    def __or__(self, o):
        return type(self)(self.v | o.v)

    def __xor__(self, o):
        return type(self)(self.v ^ o.v)


class Counted(Bits):
    """``Bits`` that counts the operands made: one per ``&``, ``|`` or ``^``."""

    made = 0

    def __init__(self, v: int):
        super().__init__(v)
        Counted.made += 1


def stepwise(c, states):
    """Each row of ``states`` run through ``c`` by ``sim.run`` one gate at a time: the
    output rows, and the largest digit on any wire before or after any gate."""
    steps = [ir.extend(ir.new_circuit(c.wires), [g]) for g in c.gates]
    want, want_max = [], 0
    for digits in states.tolist():
        s = sim.basis_state(c, digits)
        want_max = max(want_max, *s.digits)
        for step in steps:
            s = sim.run(step, s)
            want_max = max(want_max, *s.digits)
        want.append(s.digits)
    return want, want_max


@settings(max_examples=80, deadline=None)
@given(circuit_and_batch())
def test_property_batch_matches_scalar_steps(cb):
    c, states = cb
    want, want_max = stepwise(c, states)
    assert [sim.run(c, sim.basis_state(c, digits)).digits for digits in states.tolist()] == want
    ins = oracle.to_levels(states, c.dims)
    before = [list(lv) for lv in ins.wires]
    out, max_digit = sim.run_batch(c, ins, track_max=True)
    assert before == ins.wires
    assert isinstance(out, sim.Levels) and len(out) == len(states)
    assert [len(lv) for lv in out.wires] == list(c.dims)
    assert all(0 <= rows < 1 << len(states) for lv in out.wires for rows in lv)
    rows = oracle.from_levels(out)
    assert [tuple(row) for row in rows.tolist()] == want
    assert max_digit == want_max
    untracked, zero = sim.run_batch(c, ins)
    assert (oracle.from_levels(untracked) == rows).all() and zero == 0
    # The gate loop alone, on the level sets of the digits as ``Bits``, gives the same
    # rows and largest digit, with each row in exactly one level set per wire.
    floor = int(states.max(initial=0))
    levels = [[Bits(rows) for rows in lv] for lv in oracle.to_levels(states, c.dims).wires]
    seen = sim.run_gates(levels, c.dims, c.gates, floor)
    got = [[[v for v, rows in enumerate(lv) if rows.v >> r & 1] for lv in levels] for r in range(len(states))]
    assert got == [[[d] for d in digits] for digits in want]
    assert max([v for v, hit in seen.items() if hit.v], default=floor) == want_max


def test_run_sees_gates_extended_after_a_run():
    c = ir.extend(ir.new_circuit([Wire("a", 2), Wire("b", 3)]), [ir.incr(1, 1, [(0, 1)])])
    s = sim.basis_state(c, [1, 0])
    assert sim.run(c, s).digits == (1, 1)
    ir.extend(c, [ir.incr(1, 1, [(0, 1)])])
    assert sim.run(c, s).digits == (1, 2)
    ir.extend(c, [ir.x(0, [(1, 2)])])
    assert sim.run(c, s).digits == (0, 2)


def test_run_rejects_a_digit_an_unvalidated_gate_puts_outside_its_wire():
    # ``Circuit`` itself does not call ``validate_gate``: flip(0, 0, 5) on a qubit sends 0 to 5.
    c = ir.Circuit((Wire("a", 2), Wire("b", 2)), [ir.flip(0, 0, 5, [(1, 1)])])
    assert sim.run(c, sim.basis_state(c, [0, 0])).digits == (0, 0)
    with pytest.raises(ValueError, match=r"digit 5 is not an integer in \[0, 2\)"):
        sim.run(c, sim.basis_state(c, [0, 1]))


@pytest.mark.parametrize("gate", [ir.x(0, [(2, 0)]), ir.x(0, [(-1, 1)]), ir.x(2), ir.x(-1), ir.swap(0, 2)],
                         ids=["control-on-width", "negative-control", "target-width", "negative-target", "swap-to-width"])
def test_run_rejects_an_unvalidated_gate_on_a_wire_outside_the_circuit(gate):
    # Wire ids index the digits directly, and index ``width`` is the slot a missing control reads.
    c = ir.Circuit((Wire("a", 2), Wire("b", 2)), [ir.x(1), gate])
    with pytest.raises(ir.CircuitError, match="outside the circuit"):
        sim.run(c, sim.basis_state(c, [0, 0]))


@pytest.mark.parametrize("n", [0, 1, 65])
@pytest.mark.parametrize("dim", [7, 8, 9, 33, ir.MAX_DIM])
def test_run_batch_matches_scalar_steps_on_high_dims(dim, n):
    # Two wires of ``dim`` start binary, so the gates set the largest digit; a qutrit controls.
    c = ir.new_circuit([Wire("t", dim), Wire("u", dim), Wire("c", 3)])
    gates = []
    for k in range(1, dim):
        gates += [ir.incr(0, k), ir.incr(1, k, [(2, k % 3)])]
    gates += [
        ir.flip(0, 0, dim - 1),
        ir.flip(1, 1, dim // 2, [(2, 2)]),
        ir.flip(0, 2, dim - 2, [(1, dim // 2), (2, 2)]),
        ir.swap(0, 1),
        ir.swap(0, 1, [(2, 0)]),
    ]
    ir.extend(c, gates)
    states = np.random.default_rng(dim).integers(0, (2, 2, 3), size=(n, 3))
    out, max_digit = sim.run_batch(c, oracle.to_levels(states, c.dims), track_max=True)
    want, want_max = stepwise(c, states)
    assert [tuple(row) for row in oracle.from_levels(out).tolist()] == want
    assert max_digit == want_max


@pytest.mark.parametrize("gate,most", [
    pytest.param(ir.x(0), 0, id="x"),
    pytest.param(ir.flip(1, 0, 3), 0, id="flip"),
    pytest.param(ir.incr(1, 1), 0, id="incr-1"),
    pytest.param(ir.incr(1, 2), 0, id="incr-2"),
    pytest.param(ir.incr(3, 2), 0, id="incr-qutrit"),
    pytest.param(ir.swap(1, 2), 0, id="swap"),
    pytest.param(ir.x(0, [(3, 2)]), 4, id="x-1-control"),
    pytest.param(ir.flip(1, 0, 3, [(0, 1)]), 4, id="flip-1-control"),
    pytest.param(ir.flip(1, 2, 1, [(0, 1), (3, 0)]), 5, id="flip-2-controls"),
])
def test_run_gates_operation_count(gate, most):
    # Uncontrolled gates only reorder level sets; a controlled flip is a masked
    # XOR-swap, (a ^ b) & mask and two XORs, after one AND for a second control.
    dims = (2, 4, 4, 3)
    levels = [[Counted(1)] + [Counted(0)] * (d - 1) for d in dims]
    before = Counted.made
    sim.run_gates(levels, dims, [gate])
    assert Counted.made - before <= most


@pytest.mark.parametrize("scheme", [cmp.SCHEME_231, cmp.SCHEME_241], ids=lambda s: s.label)
@pytest.mark.parametrize("carry_in,carry_out", [(False, False), (False, True), (True, False), (True, True)])
def test_scalar_run_matches_batch_and_big_int_on_flagship_adders(scheme, carry_in, carry_out):
    plan = bb.plan_blocks(bb.MODE_AB, scheme, 30)
    circ = bb.build_block_adder(plan, carry_in, carry_out)
    layout = plan.layout(carry_in, carry_out)
    ins = oracle.adder_inputs(layout, circ.width, np.random.default_rng(3), 12)
    batch, _ = oracle.run_rows(circ, ins)
    for digits, batch_row in zip(ins.tolist(), batch.tolist()):
        assert sim.run(circ, sim.basis_state(circ, digits)).digits == tuple(batch_row)
    assert (batch == oracle.adder_outputs(layout, ins)).all()


K240 = int("10" * 120, 2)


@pytest.mark.parametrize("mode,scheme,carry_in", [
    pytest.param(bb.MODE_AB, cmp.SCHEME_231, False, id="a+b-231"),
    pytest.param(bb.MODE_AB, cmp.SCHEME_241, False, id="a+b-241"),
    pytest.param(bb.MODE_PLUS_K, cmp.SCHEME_231, False, id="+k-231"),
    pytest.param(bb.MODE_PLUS_K, cmp.SCHEME_241, True, id="+k-241-carry-in"),
])
def test_scalar_run_matches_batch_on_n240_flagships(mode, scheme, carry_in):
    # The four n=240 carry-out adders CI verifies at scale, +K with the constant 1010...10.
    plan = bb.plan_blocks(mode, scheme, 240)
    if mode == bb.MODE_AB:
        circ = bb.build_block_adder(plan, carry_in, True)
    else:
        circ = bb.build_block_plus_k(plan, K240, carry_in, True)
    layout = plan.layout(carry_in, True)
    ins = oracle.adder_inputs(layout, circ.width, np.random.default_rng(240), 3)
    batch, _ = oracle.run_rows(circ, ins)
    assert [sim.run(circ, sim.basis_state(circ, digits)).digits for digits in ins.tolist()] == [
        tuple(row) for row in batch.tolist()]
    assert (batch == oracle.adder_outputs(layout, ins, K240)).all()


@pytest.mark.parametrize("circ", [
    pytest.param(cmp.build_compress_231(), id="compress231"),
    pytest.param(cmp.build_compress_241(), id="compress241"),
    pytest.param(build_cla_adder(2, True, True).circuit, id="cla-2"),
])
def test_scalar_run_matches_batch_and_statevector(circ):
    states = list(oracle.interface_states(circ))
    batch, _ = oracle.run_rows(circ, np.array([s.digits for s in states]))
    for s, batch_row in zip(states, batch):
        out = sim.run(circ, s)
        assert out.digits == tuple(int(d) for d in batch_row)
        v = oracle.run_statevector(circ, oracle.statevector_from_basis(s))
        assert v.amps[oracle.state_index(out.digits, circ.dims)] == pytest.approx(1.0)


def test_run_rejects_state_of_other_dims():
    c = mixed_circuit()
    with pytest.raises(ValueError):
        sim.run(c, sim.BasisState((0, 0, 0), (2, 3, 3)))
    with pytest.raises(ValueError):
        sim.run(c, sim.BasisState((0, 0), (2, 3)))
