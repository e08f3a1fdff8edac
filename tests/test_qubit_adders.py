import math

import numpy as np
import pytest

from radixcirc import ir, sim
from radixcirc.qubit_adders import (
    AdderWiring,
    ancilla_required,
    ancilla_used,
    build_cla_adder,
    build_plus_k,
    build_ripple_adder,
    carry_out_gates,
    cla_gates,
    ripple_gates,
)

import oracle

VARIANTS = [(False, False), (True, False), (False, True), (True, True)]


def test_ancilla_formula_small_values():
    # 2m - popcount(m) - floor(log2 m)
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 6, 8: 12, 16: 27, 1024: 2037}
    for m, v in expected.items():
        assert ancilla_required(m) == v
        assert ancilla_used(m) == v - 1
    with pytest.raises(ValueError, match="register size"):
        ancilla_required(0)


def test_ancilla_formula_against_oracle():
    import math
    for m in range(1, 1025):
        assert ancilla_required(m) == 2 * m - bin(m).count("1") - int(math.log2(m))


def test_spec_and_wiring_validation():
    # an empty B register is a 0-bit adder
    for emit in (cla_gates, ripple_gates):
        with pytest.raises(ValueError, match="register size"):
            emit(AdderWiring((), ()))
    with pytest.raises(ValueError):
        # a and b overlap
        AdderWiring((0, 1), (1, 2), None, None, (3, 4))


# Each emitter checks the layout it is given, so the block builder's layouts are checked too.
# Every layout names a carry-out, which the comparator needs; the ancilla case is one short
# of the ancilla_used(3) = 2 that both emitters need.
BAD_LAYOUTS = [
    pytest.param(AdderWiring((0, 1, 2), (3, 4, 5), carry_out=6, ancilla=(7,)), None, "insufficient ancilla",
                 id="ancilla"),
    pytest.param(AdderWiring((0,), (2, 3), carry_out=6, ancilla=(4, 5)), None, "A register", id="short-a"),
    pytest.param(AdderWiring((0, 1), (2,), carry_out=6, ancilla=(4, 5)), None, "A register", id="short-b"),
    pytest.param(AdderWiring((0, 1), (2, 3), carry_out=6, ancilla=(4, 5)), 1, "A register", id="plus-k-with-a"),
    pytest.param(AdderWiring((), (0, 1), carry_out=6, ancilla=(2,)), 4, "out of range", id="k-too-big"),
    pytest.param(AdderWiring((), (0, 1), carry_out=6, ancilla=(2,)), -1, "out of range", id="k-negative"),
]


@pytest.mark.parametrize("wiring,k,message", BAD_LAYOUTS)
def test_cla_gates_rejects_bad_layout(wiring, k, message):
    with pytest.raises(ValueError, match=message):
        cla_gates(wiring, k=k)


@pytest.mark.parametrize("wiring,k,message", BAD_LAYOUTS)
def test_carry_out_gates_rejects_bad_layout(wiring, k, message):
    with pytest.raises(ValueError, match=message):
        carry_out_gates(wiring, k=k)


def test_carry_out_gates_needs_a_carry_out_wire():
    with pytest.raises(ValueError, match="carry-out wire"):
        carry_out_gates(AdderWiring((0, 1), (2, 3), carry_in=4, ancilla=(5, 6)))


def comparator_wiring(n: int, plus_k: bool, carry_in: bool) -> AdderWiring:
    """a, b, the carries, then two ancilla more than the comparator may touch."""
    n_a = 0 if plus_k else n
    pos = n_a + n + carry_in + 1
    return AdderWiring(a=tuple(range(n_a)), b=tuple(range(n_a, n_a + n)), carry_in=n_a + n if carry_in else None,
                       carry_out=pos - 1, ancilla=tuple(range(pos, pos + ancilla_used(n) + 2)))


@pytest.mark.parametrize("carry_in", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_carry_out_gates_exhaustive(n, carry_in):
    # The comparator flips only its carry-out wire, by the big-integer carry-out of
    # ~B + A + c_in (~B + k + c_in), and touches exactly ancilla_used(n) ancilla, a prefix.
    for k in [None, *range(1 << n)]:
        w = comparator_wiring(n, k is not None, carry_in)
        gates = carry_out_gates(w, k)
        touched = {wire for g in gates for wire in g.wires()} & set(w.ancilla)
        assert touched == set(w.ancilla[: ancilla_used(n)]), (n, k)

        rows = oracle.adder_inputs(w, w.width)
        ins = np.vstack([rows, rows])
        ins[len(rows):, w.carry_out] = 1
        not_b = ins.copy()
        not_b[:, w.b] ^= 1
        exp = ins.copy()
        exp[:, w.carry_out] ^= oracle.adder_outputs(w, not_b, k)[:, w.carry_out]
        out, _ = oracle.run_rows(ir.extend(w.new_circuit(), gates), ins)
        assert (out == exp).all(), (n, k)


def test_ripple_gates_rejects_bad_layout():
    with pytest.raises(ValueError, match="A register"):
        ripple_gates(AdderWiring((0, 1), (2,)))


def test_emitters_honour_every_carry_wire_of_the_wiring():
    # n=3 with a carry-in and a carry-out; A, B and the carries sit off the canonical order
    w = AdderWiring(a=(6, 1, 4), b=(0, 5, 2), carry_in=3, carry_out=7, ancilla=(8, 9, 10))
    ins = oracle.adder_inputs(w, w.width)
    for gates in (cla_gates(w), ripple_gates(w)):
        out, _ = oracle.run_rows(ir.extend(w.new_circuit(), gates), ins)
        assert (out == oracle.adder_outputs(w, ins)).all()


def run_scalar(c, ins):
    """Scalar ``sim.run`` on each row of ``ins``."""
    return np.array([sim.run(c, sim.basis_state(c, row)).digits for row in ins.tolist()])


@pytest.mark.parametrize("ci,co", VARIANTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cla_adder_exhaustive(n, ci, co):
    built = build_cla_adder(n, ci, co)
    ins = oracle.adder_inputs(built.wiring, built.circuit.width)
    assert (run_scalar(built.circuit, ins) == oracle.adder_outputs(built.wiring, ins)).all()


@pytest.mark.parametrize("ci,co", VARIANTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ripple_adder_exhaustive(n, ci, co):
    built = build_ripple_adder(n, ci, co)
    assert not built.wiring.ancilla
    ins = oracle.adder_inputs(built.wiring, built.circuit.width)
    assert (run_scalar(built.circuit, ins) == oracle.adder_outputs(built.wiring, ins)).all()


@pytest.mark.parametrize("ci,co", VARIANTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plus_k_exhaustive(n, ci, co):
    for k in range(1 << n):
        built = build_plus_k(n, k, ci, co)
        ins = oracle.adder_inputs(built.wiring, built.circuit.width)
        assert (run_scalar(built.circuit, ins) == oracle.adder_outputs(built.wiring, ins, k)).all()


def test_plus_k_constant_range():
    with pytest.raises(ValueError):
        build_plus_k(3, 8)
    with pytest.raises(ValueError):
        build_plus_k(3, -1)


def test_cla_depth_grows_logarithmically():
    def d(n):
        return ir.depth(build_cla_adder(n, False, False).circuit)

    d16, d32, d64 = d(16), d(32), d(64)
    lo, hi = d32 - d16, d64 - d32
    lo, hi = min(lo, hi), max(lo, hi)
    assert lo > 0 and hi <= 2 * lo


def test_ripple_depth_grows_linearly():
    def d(n):
        return ir.depth(build_ripple_adder(n, True, True).circuit)

    assert d(32) > 2.5 * d(16) / 2  # at least roughly linear growth
    assert d(64) - d(32) > (d(32) - d(16)) * 1.5


def test_adders_use_declared_ancilla_budget():
    for n in (3, 5, 8):
        for built in (build_cla_adder(n, True, True), build_plus_k(n, 1, True, True)):
            assert len(built.wiring.ancilla) == ancilla_used(n)


@pytest.mark.parametrize("carry_in,carry_out", VARIANTS)
def test_cla_touches_a_prefix_of_its_ancilla(carry_in, carry_out):
    # README: the CLA touches every one of its ancilla_used(n) ancilla with a carry-out and
    # a prefix of them without, so no reserved ancilla sits idle under a carry-out.
    for n in range(1, 129):
        for built in (build_cla_adder(n, carry_in, carry_out), build_plus_k(n, (1 << n) - 1, carry_in, carry_out)):
            ancilla = built.wiring.ancilla
            touched = {w for g in built.circuit.gates for w in g.wires()} & set(ancilla)
            assert touched == set(ancilla if carry_out else ancilla[: len(touched)]), n


@pytest.mark.parametrize("carry_in,carry_out", VARIANTS)
def test_builders_emit_net_circuits(carry_in, carry_out):
    # No built adder up to n=64 holds an adjacent inverse pair, and each still adds and inverts.
    rng = np.random.default_rng(13)
    for n in range(1, 65):
        k = int.from_bytes(rng.bytes(8), "little") % (1 << n)
        for built, addend in ((build_cla_adder(n, carry_in, carry_out), None),
                              (build_plus_k(n, k, carry_in, carry_out), k),
                              (build_ripple_adder(n, carry_in, carry_out), None)):
            c = built.circuit
            assert ir.cancel_inverses(c.gates, c.dims) == c.gates, n
            ins = oracle.adder_inputs(built.wiring, c.width, rng, 6)
            out, _ = oracle.run_rows(c, ins)
            assert (out == oracle.adder_outputs(built.wiring, ins, addend)).all(), n
            digits = rng.integers(0, 2, size=(6, c.width))
            back, _ = oracle.run_rows(oracle.forward_then_inverse(c), digits)
            assert (back == digits).all(), n


# README: CLA depth is at most 4*log2(n) + 10 for all n up to 512.  Every
# n <= 64, plus each power of two and its neighbours up to 512.
DEPTH_SIZES = sorted(set(range(1, 65)) | {2**k + d for k in range(6, 10) for d in (-1, 0, 1) if 2**k + d <= 512})


@pytest.mark.parametrize("carry_in,carry_out", VARIANTS)
def test_cla_depth_within_readme_bound(carry_in, carry_out):
    for n in DEPTH_SIZES:
        d = ir.depth(build_cla_adder(n, carry_in, carry_out).circuit)
        assert d <= 4 * math.log2(n) + 10, (n, d)
