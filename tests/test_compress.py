import pytest

from radixcirc import compress as cmp
from radixcirc import ir, sim

import oracle

# Expected input -> output maps on binary inputs; the spare wire ends at 0.
MAP_231 = {
    (0, 0, 0): (0, 0, 0),
    (0, 0, 1): (2, 2, 0),
    (0, 1, 0): (0, 1, 0),
    (0, 1, 1): (0, 2, 0),
    (1, 0, 0): (1, 0, 0),
    (1, 0, 1): (2, 1, 0),
    (1, 1, 0): (1, 1, 0),
    (1, 1, 1): (1, 2, 0),
}
MAP_241 = {(a, b): (a + 2 * b, 0) for a in (0, 1) for b in (0, 1)}


def test_feasible_predicate():
    assert cmp.feasible(2, 3, 3, 2)      # 8 <= 9
    assert cmp.feasible(2, 4, 2, 1)      # 4 <= 4
    assert not cmp.feasible(2, 3, 4, 2)  # 16 > 9
    assert not cmp.feasible(2, 3, 3, 3)  # no shrink
    assert cmp.feasible(2, 8, 4, 2)      # 16 <= 64
    assert cmp.feasible(3, 9, 3, 2)      # 27 <= 81
    with pytest.raises(ValueError):
        cmp.feasible(1, 3, 3, 2)


def test_scheme_constants_and_lookup():
    assert cmp.SCHEME_231.label == "2-3-1"
    assert cmp.SCHEME_241.label == "2-4-1"
    assert cmp.scheme_by_name("231") is cmp.SCHEME_231
    assert cmp.scheme_by_name("2-4-1") is cmp.SCHEME_241
    with pytest.raises(ValueError):
        cmp.scheme_by_name("259")
    with pytest.raises(ValueError, match="infeasible scheme"):
        cmp.CompressionScheme(x=2, y=3, m=4, n_out=2)
    assert (cmp.SCHEME_231.z, cmp.SCHEME_241.z) == (1, 1)


def test_compress_231_truth_table():
    c = cmp.build_compress_231()
    got = {s.digits: sim.run(c, s).digits for s in oracle.interface_states(c)}
    assert got == MAP_231


def test_compress_241_truth_table():
    c = cmp.build_compress_241()
    got = {s.digits: sim.run(c, s).digits for s in oracle.interface_states(c)}
    assert got == MAP_241


def test_compress_231_is_permutation_of_full_qutrit_space():
    c = cmp.build_compress_231()
    outs = {sim.run(c, s).digits for s in oracle.all_basis_states(c)}
    assert len(outs) == 27


def test_231_gate_budget():
    c = cmp.build_compress_231()
    assert len(c.gates) == 7
    assert sum(1 for g in c.gates if g.arity == 3) == 1
    assert sum(1 for g in c.gates if g.arity == 2) == 6


def test_241_uses_three_two_qudit_gates():
    c = cmp.build_compress_241()
    assert len(c.gates) == 3
    assert all(g.arity == 2 for g in c.gates)


def test_decompress_round_trip():
    for fwd in (cmp.build_compress_231(), cmp.build_compress_241()):
        both = oracle.forward_then_inverse(fwd)
        for s in oracle.interface_states(fwd):
            assert sim.run(both, s) == s


def test_block_gates_unknown_scheme():
    other = cmp.CompressionScheme(x=2, y=8, m=4, n_out=2)
    with pytest.raises(ValueError, match="no circuit builder for scheme 2-8-2"):
        cmp.block_gates(other, cmp.layout_block([0, 1, 2, 3], other))


def test_layout_block_grouping():
    lay = cmp.layout_block(list(range(8)), cmp.SCHEME_231)
    assert lay.groups == ((0, 1, 2), (3, 4, 5))
    assert lay.ancilla == (2, 5)
    # wires past the last full group are in no group and stay uncompressed
    assert not {6, 7} & {w for group in lay.groups for w in group}
    with pytest.raises(ValueError):
        cmp.layout_block([], cmp.SCHEME_231)


def test_block_compress_restores_on_inverse():
    layout = cmp.layout_block(list(range(6)), cmp.SCHEME_231)
    assert layout.ancilla == (2, 5)
    circ = ir.new_circuit([ir.Wire(f"q{i}", 3) for i in range(6)])
    ir.extend(circ, cmp.block_gates(cmp.SCHEME_231, layout))
    both = oracle.forward_then_inverse(circ)
    for s in oracle.interface_states(circ):
        assert sim.run(both, s) == s
    # ancilla wires end at 0 after the forward pass
    for s in oracle.interface_states(circ):
        out = sim.run(circ, s)
        assert all(out.digits[a] == 0 for a in layout.ancilla)
