import functools
import itertools
import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radixcirc import block_builder as bb
from radixcirc import compress as cmp
from radixcirc import ir, resources
from radixcirc.ir import Circuit, CircuitError, Gate, Wire
from radixcirc.qubit_adders import build_cla_adder, build_plus_k, build_ripple_adder

import oracle


def three_wires():
    return [Wire("a", 2), Wire("b", 3), Wire("c", 4)]


def test_wire_rejects_dim_below_two():
    with pytest.raises(CircuitError):
        Wire("w", 1)


def test_wire_rejects_dim_above_max_dim():
    assert Wire("w", ir.MAX_DIM).dim == ir.MAX_DIM
    for dim in (ir.MAX_DIM + 1, 10 ** 9):
        with pytest.raises(CircuitError, match="dim must be in"):
            Wire("w", dim)


def test_gate_shape_validation():
    with pytest.raises(CircuitError):
        Gate("flip", (0, 1), (0, 1))
    with pytest.raises(CircuitError):
        Gate("incr", (0,), ())
    with pytest.raises(CircuitError):
        Gate("nope", (0,), ())
    with pytest.raises(CircuitError):
        Gate("flip", (0,), (0, 1), ((1, 1), (2, 0), (3, 1)))
    # target also used as control
    with pytest.raises(CircuitError):
        Gate("flip", (0,), (0, 1), ((0, 1),))


def test_gate_arity_and_wires():
    g = ir.flip(2, 0, 1, [(0, 1), (1, 2)])
    assert g.arity == 3
    assert g.wires() == (2, 0, 1)
    # equality, hash and repr stay on the four fields
    same = Gate("flip", (2,), (0, 1), ((0, 1), (1, 2)))
    assert g == same and hash(g) == hash(same) and g is not same
    assert repr(g) == "Gate(kind='flip', targets=(2,), params=(0, 1), controls=((0, 1), (1, 2)))"
    assert ir.swap(0, 1).arity == 2


def test_extend_validates_against_dims():
    c = ir.new_circuit(three_wires())
    with pytest.raises(CircuitError):
        ir.extend(c, [ir.flip(0, 0, 2)])  # value 2 on a dim-2 wire
    with pytest.raises(CircuitError):
        ir.extend(c, [ir.incr(0, 1, [(1, 3)])])  # control value out of range
    with pytest.raises(CircuitError):
        ir.extend(c, [ir.swap(0, 1)])  # unequal dims
    with pytest.raises(CircuitError):
        ir.extend(c, [ir.incr(1, 3)])  # +3 on a dim-3 wire
    ir.extend(c, [ir.incr(1, 2, [(0, 1)])])
    assert len(c.gates) == 1


def test_extend_rejects_invalid_gate_after_repeats():
    # extend validates each distinct object once: a new object after 500 uses of one is still checked.
    c = ir.new_circuit(three_wires())
    ok = ir.incr(1, 2, [(0, 1)])
    for bad in (ir.flip(0, 0, 2), ir.incr(0, 1, [(1, 3)]), ir.swap(0, 1), ir.incr(1, 3), Gate("flip", (3,), (0, 1))):
        with pytest.raises(CircuitError):
            ir.extend(c, [ok] * 500 + [bad] + [ok])
        assert c.gates == []
    assert len(ir.extend(c, [ok] * 500).gates) == 500


def test_constructors_share_one_object_per_gate():
    made = [(ir.flip(2, 0, 2, [(0, 1)]), Gate("flip", (2,), (0, 2), ((0, 1),))),
            (ir.incr(1, 2, [(0, 1), (2, 3)]), Gate("incr", (1,), (2,), ((0, 1), (2, 3)))),
            (ir.swap(0, 1), Gate("swap", (0, 1))), (ir.x(0), Gate("flip", (0,), (0, 1))),
            (ir.cx(0, 1), Gate("flip", (1,), (0, 1), ((0, 1),))),
            (ir.ccx(0, 1, 2), Gate("flip", (2,), (0, 1), ((0, 1), (1, 1))))]
    for g, same in made:
        assert g == same and hash(g) == hash(same) and g is not same
    assert ir.cx(0, 1) is ir.flip(1, 0, 1, [(0, 1)]) is ir.x(1, ((0, 1),))
    assert ir.invert_gates([ir.incr(1, 1)], (2, 3))[0] is ir.incr(1, 2)


def test_dumps_and_report_do_not_depend_on_object_sharing():
    built = bb.build_block_plus_k(bb.plan_blocks(bb.MODE_PLUS_K, cmp.SCHEME_241, 60), 12345, True, True)
    fresh = ir.extend(ir.new_circuit(built.wires), [Gate(g.kind, g.targets, g.params, g.controls) for g in built.gates])
    loaded = ir.loads(ir.dumps(built))
    assert len({id(g) for g in fresh.gates}) == len(built.gates) > len({id(g) for g in built.gates})
    for c in (fresh, loaded):
        assert ir.dumps(c) == ir.dumps(built)
        assert resources.report(c) == resources.report(built)


def test_input_bounds_default_and_validation():
    c = ir.new_circuit(three_wires())
    assert c.input_bounds == (2, 2, 2)
    c2 = ir.new_circuit(three_wires(), input_bounds=(2, 3, 4))
    assert c2.input_bounds == (2, 3, 4)
    with pytest.raises(CircuitError):
        ir.new_circuit(three_wires(), input_bounds=(2, 4, 2))
    with pytest.raises(CircuitError, match="length must match"):
        ir.new_circuit(three_wires(), input_bounds=(2, 2))


def test_inverse_reverses_and_negates_increments():
    c = ir.new_circuit(three_wires())
    ir.extend(c, [ir.incr(1, 2), ir.flip(2, 1, 3), ir.incr(2, 1)])
    inv = ir.invert_gates(c.gates, c.dims)
    kinds = [(g.kind, g.params) for g in inv]
    assert kinds == [("incr", (3,)), ("flip", (1, 3)), ("incr", (1,))]


@pytest.mark.parametrize("dim", range(2, 7))
def test_image_matches_reference_and_inverts(dim):
    # every valid flip (i != j) and increment (0 < k < dim)
    flips = [ir.flip(0, i, j) for i in range(dim) for j in range(dim) if i != j]
    for g in flips + [ir.incr(0, k) for k in range(1, dim)]:
        to = ir.image(g.kind, g.params, dim)
        assert to == tuple(oracle._digit_map(g, dim)), g
        assert sorted(to) == list(range(dim)), g
        (inv,) = ir.invert_gates([g], (dim,))
        back = ir.image(inv.kind, inv.params, dim)
        assert [back[v] for v in to] == list(range(dim)), g


def test_depth_counts_controls_as_occupancy():
    wires = [ir.Wire(n, 2) for n in "abcd"]
    c = ir.new_circuit(wires)
    # cx(a,b) and cx(c,d) are parallel; cx(b,c) must wait for both.
    ir.extend(c, [ir.cx(0, 1), ir.cx(2, 3), ir.cx(1, 2)])
    assert ir.depth(c) == 2
    assert ir.depth(ir.new_circuit(wires)) == 0


def test_depth_serial_chain():
    c = ir.new_circuit([ir.Wire(n, 2) for n in "ab"])
    ir.extend(c, [ir.cx(0, 1)] * 5)
    assert ir.depth(c) == 5


def test_json_round_trip():
    c = ir.new_circuit(three_wires())
    ir.extend(c, [ir.flip(2, 0, 3, [(0, 1)]), ir.incr(1, 2), ir.x(0)])
    d = json.loads(ir.dumps(c))
    # exact format-1 layout: each wire a [name, dim] pair, each row [kind, targets, params, controls]
    assert list(d) == ["format", "wires", "table", "gates"]
    assert d["format"] == 1
    assert d["wires"][1] == ["b", 3]
    assert d["table"][0] == ["flip", [2], [0, 3], [[0, 1]]]
    assert d["gates"] == [0, 1, 2]
    back = ir.loads(ir.dumps(c))
    assert back.wires == c.wires
    assert back.gates == c.gates


def test_loads_rejects_invalid_gate():
    doc = {"wires": [{"name": "a", "dim": 2}], "gates": [{"kind": "incr", "targets": [0], "params": [5], "controls": []}]}
    with pytest.raises(CircuitError):
        ir.circuit_from_dict(doc)
    with pytest.raises(CircuitError, match="malformed JSON"):
        ir.loads("{not json")


# --- the JSON writer against the reference documents -----------------------

INDENTS = (None, 0, 2)
CARRIES = list(itertools.product((False, True), repeat=2))


def block_circuits():
    """Every block scheme and mode at its smallest feasible n, all carry variants."""
    for mode, scheme, n in [
        (bb.MODE_AB, cmp.SCHEME_231, 21),
        (bb.MODE_AB, cmp.SCHEME_241, 10),
        (bb.MODE_PLUS_K, cmp.SCHEME_231, 78),
        (bb.MODE_PLUS_K, cmp.SCHEME_241, 36),
    ]:
        plan = bb.plan_blocks(mode, scheme, n)
        for ci, co in CARRIES:
            if mode == bb.MODE_AB:
                yield f"block-adder-{scheme.label}-n{n}-{ci}-{co}", bb.build_block_adder(plan, ci, co)
            else:
                k = int("10" * (n // 2), 2)
                yield f"block-plus-k-{scheme.label}-n{n}-{ci}-{co}", bb.build_block_plus_k(plan, k, ci, co)


def small_circuits():
    for ci, co in CARRIES:
        yield f"cla-{ci}-{co}", build_cla_adder(5, ci, co).circuit
        yield f"plus-k-{ci}-{co}", build_plus_k(5, 19, ci, co).circuit
        yield f"ripple-{ci}-{co}", build_ripple_adder(5, ci, co).circuit
    yield "compress231", cmp.build_compress_231()
    yield "compress241", cmp.build_compress_241()
    yield "empty", ir.new_circuit([])
    odd = ir.new_circuit([Wire('q"uote\nline\u00e9\u2603\\', 3), Wire("", 3)])
    yield "odd-names", ir.extend(odd, [ir.swap(0, 1), ir.incr(0, 2, [(1, 1)])])


def assert_reads_back(text: str, c: Circuit) -> None:
    back = ir.loads(text)
    assert back.wires == c.wires
    assert back.gates == c.gates
    assert back.input_bounds == c.input_bounds


@pytest.mark.parametrize("circ", [pytest.param(c, id=name) for name, c in [*block_circuits(), *small_circuits()]])
def test_dumps_matches_stdlib_encoder(circ):
    """``dumps`` writes the reference format-1 document, and ``loads`` reads it and
    the format-0 text of every indent back."""
    text = ir.dumps(circ)
    assert json.loads(text) == oracle.circuit_to_doc(circ)
    assert_reads_back(text, circ)
    for indent in INDENTS:
        assert_reads_back(json.dumps(oracle.circuit_to_dict(circ), indent=indent), circ)


@st.composite
def valid_circuits(draw):
    dims = draw(st.lists(st.integers(2, 4), min_size=0, max_size=5))
    names = draw(st.lists(st.text(max_size=4), min_size=len(dims), max_size=len(dims)))
    c = ir.new_circuit([Wire(nm, d) for nm, d in zip(names, dims)])
    if not dims:
        return c
    for _ in range(draw(st.integers(0, 12))):
        t = draw(st.integers(0, len(dims) - 1))
        kind = draw(st.sampled_from([ir.FLIP, ir.INCR, ir.SWAP]))
        same = [w for w in range(len(dims)) if w != t and dims[w] == dims[t]]
        if kind == ir.SWAP and not same:
            kind = ir.INCR
        if kind == ir.FLIP:
            i = draw(st.integers(0, dims[t] - 1))
            j = draw(st.integers(0, dims[t] - 1).filter(lambda v: v != i))
            targets, params = (t,), (i, j)
        elif kind == ir.INCR:
            targets, params = (t,), (draw(st.integers(1, dims[t] - 1)),)
        else:
            targets, params = (t, draw(st.sampled_from(same))), ()
        pool = [w for w in range(len(dims)) if w not in targets]
        ctrl_wires = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True)) if pool else []
        controls = tuple((w, draw(st.integers(0, dims[w] - 1))) for w in ctrl_wires)
        ir.extend(c, [Gate(kind, targets, params, controls)])
    return c


@settings(max_examples=80, deadline=None)
@given(valid_circuits(), st.sampled_from(INDENTS))
def test_property_dumps_matches_stdlib_and_round_trips(c, indent):
    text = ir.dumps(c)
    assert json.loads(text) == oracle.circuit_to_doc(c)
    assert_reads_back(text, c)
    assert_reads_back(json.dumps(oracle.circuit_to_dict(c), indent=indent), c)


def assert_depth_and_max_dim(c: Circuit) -> None:
    """``ir.depth`` against the oracle's layering, and the report's ``max_dim_touched``
    against the largest dim of a wire some gate touches."""
    assert ir.depth(c) == oracle.reference_depth(c)
    touched = [c.dims[w] for g in c.gates for w in g.wires()]
    assert resources.report(c).max_dim_touched == max(touched, default=0)


@settings(max_examples=80, deadline=None)
@given(valid_circuits())
def test_property_depth_matches_reference_layering(c):
    assert_depth_and_max_dim(c)


@pytest.mark.parametrize("circ", [pytest.param(c, id=name) for name, c in small_circuits()])
def test_depth_matches_reference_layering(circ):
    assert_depth_and_max_dim(circ)


def test_loads_shares_repeated_gates():
    c = ir.new_circuit([ir.Wire(n, 2) for n in "ab"])
    ir.extend(c, [ir.cx(0, 1), ir.x(0), ir.cx(0, 1)])
    back = ir.loads(ir.dumps(c))
    assert back.gates == c.gates
    assert back.gates[0] is back.gates[2]


def test_loads_rejects_invalid_gate_after_repeats():
    cx = {"kind": "flip", "targets": [1], "params": [0, 1], "controls": [{"wire": 0, "value": 1}]}
    wires = [{"name": "a", "dim": 2}, {"name": "b", "dim": 2}]
    bad = [
        {"kind": "incr", "targets": [0], "params": [5], "controls": []},
        {"kind": "flip", "targets": [1], "params": [0, 1], "controls": [{"wire": 0, "value": 2}]},
        {"kind": "flip", "targets": [2], "params": [0, 1], "controls": []},
        {"kind": "swap", "targets": [0, 0], "params": [], "controls": []},
    ]
    assert len(ir.circuit_from_dict({"wires": wires, "gates": [cx] * 500}).gates) == 500
    for g in bad:
        with pytest.raises(CircuitError):
            ir.circuit_from_dict({"wires": wires, "gates": [g]})
        with pytest.raises(CircuitError):
            ir.circuit_from_dict({"wires": wires, "gates": [cx] * 500 + [g] + [cx]})


def test_ir_paths_read_dims_a_constant_number_of_times(monkeypatch):
    """Build, dumps, loads, depth and report must not rebuild ``dims`` per gate."""
    reads = []
    dims = Circuit.dims

    def counted(self):
        reads.append(1)
        return dims.fget(self)

    monkeypatch.setattr(Circuit, "dims", property(counted))

    def dims_reads(n):
        reads.clear()
        circ = bb.build_block_adder(bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_231, n), carry_out=True)
        back = ir.loads(ir.dumps(circ))
        ir.depth(back)
        resources.report(back)
        return len(reads), len(circ.gates)

    small, small_gates = dims_reads(30)
    large, large_gates = dims_reads(120)
    assert large_gates > 4 * small_gates
    assert small == large <= 4


@pytest.mark.parametrize("field,value", [
    ("target", True), ("target", 1.0), ("param", True), ("param", 1.0),
    ("control wire", False), ("control wire", 0.0), ("control value", True), ("control value", "1"),
    ("dim", True), ("dim", 2.0), ("name", 7), ("kind", ["flip"]),
    ("index", True), ("index", 1.0), ("index", -1), ("index", 2), ("format", True), ("format", 1.0),
])
def test_loads_rejects_non_int_fields(field, value):
    """Each field is set to ``value`` in a format-0 and a format-1 document, where
    the format has it.  The well-typed gate comes first, so a bad one that compared
    equal to it would pass for it."""
    cx = {"kind": "flip", "targets": [1], "params": [0, 1], "controls": [{"wire": 0, "value": 1}]}
    v0 = {"wires": [{"name": "a", "dim": 2}, {"name": "b", "dim": 2}], "gates": [cx, json.loads(json.dumps(cx))]}
    v1 = {"format": 1, "wires": [["a", 2], ["b", 2]],
          "table": [["flip", [1], [0, 1], [[0, 1]]], ["flip", [1], [0, 1], [[0, 1]]]], "gates": [0, 1]}
    paths = {  # the field's place in (v0, v1)
        "target": (("gates", 1, "targets", 0), ("table", 1, 1, 0)),
        "param": (("gates", 1, "params", 1), ("table", 1, 2, 1)),
        "control wire": (("gates", 1, "controls", 0, "wire"), ("table", 1, 3, 0, 0)),
        "control value": (("gates", 1, "controls", 0, "value"), ("table", 1, 3, 0, 1)),
        "kind": (("gates", 1, "kind"), ("table", 1, 0)),
        "dim": (("wires", 1, "dim"), ("wires", 1, 1)),
        "name": (("wires", 1, "name"), ("wires", 1, 0)),
        "index": (None, ("gates", 1)),
        "format": (None, ("format",)),
    }
    for doc, path in zip((v0, v1), paths[field]):
        if path is not None:
            ir.circuit_from_dict(doc)
            functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
            with pytest.raises(CircuitError):
                ir.circuit_from_dict(doc)


# --- cancel_inverses ------------------------------------------------------

def net(gates, dims=(2, 2, 2)):
    return ir.cancel_inverses(gates, dims)


def test_cancel_inverses_cascades():
    a, b = 0, 1
    assert net([ir.x(a), ir.cx(a, b), ir.cx(a, b), ir.x(a)]) == []


def test_cancel_inverses_keeps_a_pair_blocked_on_a_shared_wire():
    a, b, c = 0, 1, 2
    # the gate between shares the pair's target wire, or its control wire
    for between in (ir.x(b), ir.x(a), ir.cx(c, a), ir.cx(a, c)):
        gates = [ir.cx(a, b), between, ir.cx(a, b)]
        assert net(gates) == gates, between
    # the pair's target wire is a control wire of the gate between
    gates = [ir.x(a), ir.cx(a, b), ir.x(a)]
    assert net(gates) == gates


def test_cancel_inverses_skips_a_disjoint_gate():
    a, b, c = 0, 1, 2
    assert net([ir.cx(a, b), ir.x(c), ir.cx(a, b)]) == [ir.x(c)]
    assert net([ir.ccx(a, b, c), ir.x(3), ir.cx(4, 3), ir.ccx(a, b, c)], (2,) * 5) == [ir.x(3), ir.cx(4, 3)]


def test_cancel_inverses_needs_increments_that_sum_to_the_dim():
    assert net([ir.incr(0, 1), ir.incr(0, 2)], (3,)) == []
    assert net([ir.incr(0, 1, [(1, 2)]), ir.incr(0, 2, [(1, 2)])], (3, 3)) == []
    for gates in ([ir.incr(0, 1), ir.incr(0, 1)], [ir.incr(0, 2), ir.incr(0, 2)],
                  [ir.incr(0, 1, [(1, 2)]), ir.incr(0, 2, [(1, 1)])]):
        assert net(gates, (3, 3)) == gates


def test_cancel_inverses_matches_kind_params_and_controls():
    dims = (3, 3, 3)
    assert net([ir.swap(0, 1), ir.swap(0, 1)], dims) == []
    assert net([ir.swap(0, 1, [(2, 1)]), ir.swap(0, 1, [(2, 1)])], dims) == []
    assert net([ir.flip(0, 1, 2, [(2, 0)]), ir.flip(0, 1, 2, [(2, 0)])], dims) == []
    # different params or kinds whose images compose to the identity
    assert net([ir.flip(0, 0, 1), ir.flip(0, 1, 0)], dims) == []
    assert net([ir.incr(0, 1), ir.x(0)], (2,)) == []
    assert net([ir.incr(0, 2), ir.incr(0, 2)], (4,)) == []
    for gates in (
        [ir.swap(0, 1, [(2, 1)]), ir.swap(0, 1, [(2, 2)])],
        [ir.flip(0, 0, 1), ir.flip(0, 1, 2)],
        [ir.flip(0, 0, 1), ir.incr(0, 2)],
        [ir.cx(1, 0), ir.x(0)],
    ):
        assert net(gates, dims) == gates
    assert net([ir.incr(0, 1), ir.x(0)], (3,)) == [ir.incr(0, 1), ir.x(0)]


def adjacent_inverse_pairs(gates, dims):
    """Brute force: the (i, j) with gate i the last before gate j on every wire gate j
    touches, the same targets and controls, and either two swaps or digit maps that
    compose to the identity under the reference ``oracle._digit_map``."""
    pairs = []
    for j, g in enumerate(gates):
        last = {max((i for i in range(j) if w in gates[i].wires()), default=None) for w in g.wires()}
        if len(last) == 1 and None not in last:
            (i,) = last
            h = gates[i]
            if (h.targets, h.controls) != (g.targets, g.controls):
                continue
            if g.kind == ir.SWAP:
                undoes = h.kind == ir.SWAP
            else:
                d = dims[g.targets[0]]
                undoes = (oracle._digit_map(g, d)[oracle._digit_map(h, d)] == np.arange(d)).all()
            if undoes:
                pairs.append((i, j))
    return pairs


@st.composite
def gate_lists(draw):
    """A random circuit's gates with the inverse of a random suffix appended, then
    a random slice of the whole: input with cascades, blocked pairs and leftovers."""
    c = draw(valid_circuits())
    gates, dims = c.gates, c.dims
    split = draw(st.integers(0, len(gates)))
    both = gates + ir.invert_gates(gates[split:], dims)
    lo = draw(st.integers(0, len(both)))
    return c, both[lo:]


@settings(max_examples=150, deadline=None)
@given(gate_lists())
def test_property_cancel_inverses_is_net_and_equivalent(drawn):
    c, gates = drawn
    dims = c.dims
    out = ir.cancel_inverses(gates, dims)
    assert ir.cancel_inverses(out, dims) == out
    assert adjacent_inverse_pairs(out, dims) == []
    assert ir.cancel_inverses(gates + ir.invert_gates(gates, dims), dims) == []
    # out is a subsequence of gates that acts the same on every basis state
    it = iter(gates)
    assert all(any(g is h for h in it) for g in out)
    if c.width:
        states = np.array([s.digits for s in oracle.all_basis_states(c)])
        want, _ = oracle.run_rows(ir.extend(ir.new_circuit(c.wires), gates), states)
        got, _ = oracle.run_rows(ir.extend(ir.new_circuit(c.wires), out), states)
        assert (got == want).all()
