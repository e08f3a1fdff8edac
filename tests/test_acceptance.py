"""End-to-end acceptance checks.

Each test prints exactly one `criterion N (...): PASS|FAIL` line on the
terminal (bypassing capture) and then asserts, so `pytest tests/test_acceptance.py`
gives a readable scorecard.
"""
import functools
import math
import time

import numpy as np
import pytest

from radixcirc import block_builder as bb
from radixcirc import compress as cmp
from radixcirc import ir, resources, sim
from radixcirc.qubit_adders import (
    ancilla_required,
    build_cla_adder,
    build_plus_k,
    build_ripple_adder,
)

import oracle

TABLE_231 = {
    (0, 0, 0): (0, 0, 0),
    (0, 0, 1): (2, 2, 0),
    (0, 1, 0): (0, 1, 0),
    (0, 1, 1): (0, 2, 0),
    (1, 0, 0): (1, 0, 0),
    (1, 0, 1): (2, 1, 0),
    (1, 1, 0): (1, 1, 0),
    (1, 1, 1): (1, 2, 0),
}
TABLE_241 = {(0, 0): (0, 0), (0, 1): (2, 0), (1, 0): (1, 0), (1, 1): (3, 0)}

CARRY_VARIANTS = [(False, False), (True, False), (False, True), (True, True)]

FLAGSHIP = [
    (bb.MODE_AB, cmp.SCHEME_231, 30, None),
    (bb.MODE_AB, cmp.SCHEME_241, 12, None),
    (bb.MODE_PLUS_K, cmp.SCHEME_231, 168, 0xDEADBEEFCAFEBABE0123456789ABCDEF0123456789 % (1 << 168)),
    (bb.MODE_PLUS_K, cmp.SCHEME_241, 60, 0x5A5A5A5A5A5A5A5 % (1 << 60)),
]


def _report(num, name, ok, capsys):
    with capsys.disabled():
        print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


def _check(num, name, capsys, fn):
    ok, detail = False, ""
    try:
        detail = fn() or ""
        ok = True
    finally:
        _report(num, name, ok, capsys)
    return detail


def test_criterion_1_truth_tables(capsys):
    def body():
        t0 = time.perf_counter()
        for build, table in [(cmp.build_compress_231, TABLE_231), (cmp.build_compress_241, TABLE_241)]:
            c = build()
            got = {s.digits: sim.run(c, s).digits for s in oracle.interface_states(c)}
            assert got == table
            both = oracle.forward_then_inverse(c)
            for s in oracle.interface_states(c):
                assert sim.run(both, s) == s
        assert time.perf_counter() - t0 < 1.0

    _check(1, "compression truth tables", capsys, body)


def test_criterion_2_gate_counts(capsys):
    def body():
        r241 = resources.report(cmp.build_compress_241())
        assert r241.total_gates == 3 and r241.count_by_arity(2) == 3
        r231 = resources.expand_cost_model(resources.report(cmp.build_compress_231()))
        assert r231.total_gates <= 22
        assert r231.count_by_arity(2) <= 12
        assert r231.count_by_arity(1) <= 10

    _check(2, "gate-count claims", capsys, body)


def test_criterion_3_ancilla_formula(capsys):
    def body():
        for m in range(1, 1025):
            oracle = 2 * m - bin(m).count("1") - int(math.floor(math.log2(m)))
            assert ancilla_required(m) == oracle

    _check(3, "ancilla formula", capsys, body)


def test_criterion_4_sub_adders(capsys):
    def body():
        t0 = time.perf_counter()
        for n in range(1, 6):
            for ci, co in CARRY_VARIANTS:
                for built, k in (
                    [(build_cla_adder(n, ci, co), None), (build_ripple_adder(n, ci, co), None)]
                    + [(build_plus_k(n, kk, ci, co), kk) for kk in range(1 << n)]
                ):
                    ins = oracle.adder_inputs(built.wiring, built.circuit.width)
                    out, _ = oracle.run_rows(built.circuit, ins)
                    assert (out == oracle.adder_outputs(built.wiring, ins, k)).all()
        assert time.perf_counter() - t0 < 30.0

    _check(4, "sub-adder exhaustive", capsys, body)


def test_criterion_5_feasibility_thresholds(capsys):
    def body():
        cases = [
            (bb.MODE_AB, cmp.SCHEME_231, 30, 5),
            (bb.MODE_AB, cmp.SCHEME_231, 29, None),
            (bb.MODE_AB, cmp.SCHEME_241, 12, 4),
            (bb.MODE_AB, cmp.SCHEME_241, 11, None),
            (bb.MODE_PLUS_K, cmp.SCHEME_231, 168, 8),
            (bb.MODE_PLUS_K, cmp.SCHEME_231, 167, None),
            (bb.MODE_PLUS_K, cmp.SCHEME_241, 60, 6),
            (bb.MODE_PLUS_K, cmp.SCHEME_241, 59, None),
        ]
        for mode, scheme, n, expect in cases:
            plan = bb.plan_blocks(mode, scheme, n)
            assert (plan.c if plan else None) == expect
            if expect is not None:
                # direct evaluation of the worst-case bound at the chosen c
                regs = 2 if mode == bb.MODE_AB else 1
                lhs = ((expect - 1) * regs * n) // (scheme.m * expect)
                assert lhs >= 2 * n // expect + expect - 1

    _check(5, "feasibility thresholds", capsys, body)


@functools.cache
def _flagship_sweep(mode, scheme, n, k):
    """(largest digit, wrong output rows) over 1,032 random rows and every carry variant.
    Asserts nothing, so criteria 6 and 7 each judge only their own property."""
    plan = bb.plan_blocks(mode, scheme, n)
    rng = np.random.default_rng(2024)
    worst = wrong = 0
    for ci, co in CARRY_VARIANTS:
        if mode == bb.MODE_AB:
            circ = bb.build_block_adder(plan, ci, co)
        else:
            circ = bb.build_block_plus_k(plan, k, ci, co)
        layout = plan.layout(ci, co)
        ins = oracle.adder_inputs(layout, circ.width, rng, 256)
        out, max_digit = oracle.run_rows(circ, ins, track_max=True)
        worst = max(worst, max_digit)
        wrong += int((out != oracle.adder_outputs(layout, ins, k)).any(axis=1).sum())
    return worst, wrong


def test_criterion_6_flagship_correctness(capsys):
    def body():
        t0 = time.perf_counter()
        for mode, scheme, n, k in FLAGSHIP:
            _, wrong = _flagship_sweep(mode, scheme, n, k)
            assert wrong == 0, (mode, scheme.label, n, wrong)
        assert time.perf_counter() - t0 < 300.0

    _check(6, "flagship block adders", capsys, body)


def test_criterion_7_intermediate_radix_bound(capsys):
    def body():
        for mode, scheme, n, k in FLAGSHIP:
            worst, _ = _flagship_sweep(mode, scheme, n, k)
            assert worst == scheme.y - 1, (mode, scheme.label, n, worst)

    _check(7, "intermediate radix bound", capsys, body)


# A+B block adders with a carry-out: scheme, its block count, n doubling up to 1920, and
# the depths README's criterion-8 table gives.
DEPTH_SERIES = [
    (cmp.SCHEME_231, 5, [30 << i for i in range(7)], [218, 248, 274, 301, 329, 357, 385]),
    (cmp.SCHEME_241, 4, [60 << i for i in range(6)], [169, 191, 213, 235, 257, 279]),
]


def test_criterion_8_depth_scaling(capsys):
    def body():
        t0 = time.perf_counter()
        for scheme, c, sizes, readme in DEPTH_SERIES:
            depths = []
            for n in sizes:
                plan = bb.plan_blocks(bb.MODE_AB, scheme, n)
                circ = bb.build_block_adder(plan, carry_out=True)
                assert plan.c == c and circ.width == 2 * n + 1, (scheme.label, n)  # zero external ancilla
                depths.append(ir.depth(circ))
            assert depths == readme, scheme.label
            # O(log n) depth: each doubling of n adds a bounded number of layers.
            diffs = [b - a for a, b in zip(depths, depths[1:])]
            assert 0 < min(diffs) and max(diffs) <= 32, (scheme.label, depths)
            assert max(diffs) <= 2 * min(diffs)
            assert depths[-1] / depths[0] < 2.5

        def cla_depth(n):
            return ir.depth(build_cla_adder(n, False, False).circuit)

        d16, d32, d64 = cla_depth(16), cla_depth(32), cla_depth(64)
        lo, hi = sorted((d32 - d16, d64 - d32))
        assert lo > 0 and hi <= 2 * lo
        assert time.perf_counter() - t0 < 60.0

    _check(8, "depth scaling", capsys, body)


def test_criterion_9_inversion(capsys):
    def body():
        circuits = [
            cmp.build_compress_231(),
            cmp.build_compress_241(),
            build_cla_adder(1, True, True).circuit,
            build_plus_k(1, 1, True, True).circuit,
            build_ripple_adder(1, True, True).circuit,
            bb.build_block_adder(bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_241, 12)),
            bb.build_block_plus_k(bb.plan_blocks(bb.MODE_PLUS_K, cmp.SCHEME_241, 60), 7),
        ]
        rng = np.random.default_rng(77)
        for c in circuits:
            both = oracle.forward_then_inverse(c)
            dims = np.array(c.dims)
            states = rng.integers(0, dims, size=(100, c.width))
            out, _ = oracle.run_rows(both, states)
            assert (out == states).all()

    _check(9, "inversion property", capsys, body)
