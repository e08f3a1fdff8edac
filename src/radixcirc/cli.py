"""Command-line front end: build, simulate, verify and stats.

Exit codes: 0 on success or a passing verification, 1 when verification
finds a counterexample, 2 on usage errors or an infeasible build request,
141 when the reader of standard output closes it early.

Sampling draws each input wire's bits from ``random.Random(seed)``, one
``getrandbits(samples)`` per input wire in ascending wire order, so a (seed, samples) pair
reproduces the same run.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import operator
import os
import random
import sys
from pathlib import Path

from . import block_builder as bb
from . import compress as cmp
from . import ir
from . import resources
from . import sim
from .ir import Circuit
from .qubit_adders import AdderWiring, build_cla_adder, build_plus_k, build_ripple_adder

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2

EXHAUSTIVE_LIMIT = 1 << 20

COMPRESS_KINDS = ("compress231", "compress241")
ADDER_KINDS = ("cla-adder", "plus-k", "ripple-adder")
BLOCK_KINDS = ("block-adder", "block-plus-k")
KINDS = COMPRESS_KINDS + ADDER_KINDS + BLOCK_KINDS

# Reference truth tables for the compression verifiers, keyed by input bits.
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
TABLE_241 = {(a, b): (a + 2 * b, 0) for a in (0, 1) for b in (0, 1)}


class UsageError(Exception):
    pass


# --- construction ----------------------------------------------------------

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


def _require_k(args) -> int:
    _require(args.k is not None and 0 <= args.k < 1 << args.n, f"--k in [0, 2^{args.n}) is required for kind {args.kind}")
    return args.k


def _block_plan(args) -> bb.BlockPlan:
    mode = bb.MODE_AB if args.kind == "block-adder" else bb.MODE_PLUS_K
    try:
        scheme = cmp.scheme_by_name(args.scheme)
    except ValueError as e:
        raise UsageError(str(e)) from None
    plan = bb.plan_blocks(mode, scheme, args.n)
    if plan is None:
        raise UsageError(bb.infeasible_reason(mode, scheme, args.n))
    return plan


def build_kind(args, wires_only: bool = False) -> tuple[Circuit, AdderWiring | None]:
    """Construct the circuit named by ``args.kind``, with the layout its builder placed the gates by
    (None for the compressors).  ``wires_only`` skips a block kind's gates; other kinds ignore it."""
    kind = args.kind
    if kind == "compress231":
        return cmp.build_compress_231(), None
    if kind == "compress241":
        return cmp.build_compress_241(), None
    _require(args.n is not None, f"--n is required for kind {kind}")
    _require(args.n >= 1, "--n must be >= 1")
    carries = args.carry_in, args.carry_out
    if kind in ADDER_KINDS:
        if kind == "cla-adder":
            built = build_cla_adder(args.n, *carries)
        elif kind == "ripple-adder":
            built = build_ripple_adder(args.n, *carries)
        else:
            built = build_plus_k(args.n, _require_k(args), *carries)
        return built.circuit, built.wiring
    plan = _block_plan(args)
    layout, k = plan.layout(*carries), None if kind == "block-adder" else _require_k(args)
    if wires_only:
        return layout.new_circuit(plan.scheme.y), layout
    return bb.build_block_adder(plan, *carries) if k is None else bb.build_block_plus_k(plan, k, *carries), layout


# --- oracles ---------------------------------------------------------------

def _input_levels(width: int, cols: list[int], exhaustive: bool, samples: int, seed: int) -> sim.Levels:
    """Binary inputs on wires ``cols``, each as ``[ones ^ x, x]`` for its bits ``x``, and 0 on
    every other wire, ``[ones]``.  Row i of the exhaustive sweep holds the bits of i, most
    significant first (``itertools.product`` order); sampled, each input wire's bits are one
    ``getrandbits(samples)`` of ``random.Random(seed)``, drawn in ``cols`` order."""
    free = len(cols)
    if exhaustive:
        _require(free <= 20, f"exhaustive sweep over 2^{free} inputs exceeds {EXHAUSTIVE_LIMIT}")
        n = 1 << free
        bits = []
        for k in range(free):
            # Index bits k-1..0 of 2^(k+1) rows: the first 2^k rows twice, then bit k.
            bits = [((1 << (1 << k)) - 1) << (1 << k)] + [p | p << (1 << k) for p in bits]
    else:
        _require(samples <= EXHAUSTIVE_LIMIT, f"--samples {samples} exceeds {EXHAUSTIVE_LIMIT}")
        n, rng = samples, random.Random(seed)
        bits = [rng.getrandbits(n) for _ in cols]
    ones = (1 << n) - 1
    level = dict(zip(cols, bits))
    return sim.Levels([[ones ^ level[w], level[w]] if w in level else [ones] for w in range(width)], n)


def expected_outputs(kind: str, k: int | None, layout: AdderWiring | None, ins: sim.Levels) -> sim.Levels:
    """Independent oracle for each circuit kind on binary input levels.  For a compressor, level v
    of a wire is the OR of the truth-table cubes (ANDs of input levels) whose output digit there
    is v.  For an adder, a ripple-carry on level 1 of the layout's bit columns (A, or the constant
    ``k`` when the layout has no A), not the circuits' carry-lookahead, makes each B column and
    the carry-out ``[ones ^ s, s]`` for its bits s.  Other wires keep their input levels."""
    if layout is None:
        table = TABLE_231 if kind == "compress231" else TABLE_241
        cube = {row: functools.reduce(operator.and_, [lv[v] for lv, v in zip(ins.wires, row)]) for row in table}
        return sim.Levels([[functools.reduce(operator.or_, [cube[row] for row, out in table.items() if out[w] == v], 0)
                            for v in range(1 + max(out[w] for out in table.values()))]
                           for w in range(len(ins.wires))], ins.n)

    ones = (1 << len(ins)) - 1
    bit = [lv[1] if len(lv) > 1 else 0 for lv in ins.wires]
    exp = list(ins.wires)
    carry = bit[layout.carry_in] if layout.carry_in is not None else 0
    for i, col in enumerate(layout.b):
        a = bit[layout.a[i]] if layout.a else ones * (k >> i & 1)
        b = bit[col]
        s = a ^ b ^ carry
        exp[col] = [ones ^ s, s]
        carry = (a & b) | (carry & (a ^ b))
    if layout.carry_out is not None:
        exp[layout.carry_out] = [ones ^ carry, carry]
    return sim.Levels(exp, ins.n)


def run_verify(args) -> int:
    kind = args.kind
    circ, layout = build_kind(args, wires_only=bool(args.circuit))
    if args.circuit:
        dims, circ = circ.dims, ir.loads(Path(args.circuit).read_text())
        _require(circ.dims == dims, "circuit file wire dims do not match kind flags")

    cols = list(range(circ.width)) if layout is None else layout.inputs
    ins = _input_levels(circ.width, cols, args.exhaustive, args.samples, args.seed)
    exp = expected_outputs(kind, args.k, layout, ins)
    out, _ = sim.run_batch(circ, ins)
    # Rows where any level above 0 differs: both sides put each row in one level, so level 0
    # agrees where the others do.  Unlisted levels are empty, and every level is below 2**n.
    diff = functools.reduce(operator.or_, (
        g ^ e for got, want in zip(out.wires, exp.wires) for g, e in itertools.zip_longest(got[1:], want[1:], fillvalue=0)), 0)
    if diff:
        r = (diff & -diff).bit_length() - 1
        print(
            f"FAIL {kind}: input={','.join(map(str, ins.row(r)))} "
            f"expected={','.join(map(str, exp.row(r)))} got={','.join(map(str, out.row(r)))}"
        )
        return EXIT_COUNTEREXAMPLE
    print(f"PASS {kind}: {len(ins)} cases")
    return EXIT_PASS


# --- commands --------------------------------------------------------------

def cmd_build(args) -> int:
    circ, _ = build_kind(args)
    text = ir.dumps(circ)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    summary = f"kind={args.kind} width={circ.width} depth={ir.depth(circ)} gates={len(circ.gates)}"
    plan = bb.plan_of(circ)
    if plan is not None:
        summary += f" c={plan.c}"
    print(summary, file=sys.stderr if not args.out else sys.stdout)
    return EXIT_PASS


def cmd_simulate(args) -> int:
    circ = ir.loads(Path(args.circuit).read_text())
    try:
        digits = [int(t) for t in args.input.split(",")]
        state = sim.basis_state(circ, digits)
    except ValueError as e:
        raise UsageError(f"bad --input: {e}") from None
    out = sim.run(circ, state)
    print(",".join(map(str, out.digits)))
    return EXIT_PASS


def cmd_stats(args) -> int:
    circ = ir.loads(Path(args.circuit).read_text())
    plan = bb.plan_of(circ)
    r = resources.report(circ, ancilla_generated=None if plan is None else plan.ancilla_per_step)
    if args.expand_cost_model:
        r = resources.expand_cost_model(r)
    if args.csv:
        print(resources.csv_header())
        print(resources.to_csv_row(r))
    else:
        print(resources.to_json(r))
    return EXIT_PASS


# --- argument parsing ------------------------------------------------------

def _add_build_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int, help="register size in bits")
    p.add_argument("--scheme", default="231", help="compression scheme (231 or 241)")
    p.add_argument("--carry-in", action="store_true")
    p.add_argument("--carry-out", action="store_true")
    p.add_argument("--k", type=int, help="the constant for +k kinds")


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="radixcirc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a circuit and write it as JSON")
    _add_build_flags(p)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("simulate", help="run a circuit file on one basis state")
    p.add_argument("circuit", help="circuit JSON path")
    p.add_argument("--input", required=True, help="comma-separated digits, wire 0 first")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check a circuit kind against its oracle")
    _add_build_flags(p)
    p.add_argument("--circuit", help="verify this circuit file instead of a fresh build")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=run_verify)

    p = sub.add_parser("stats", help="print a resource report for a circuit file")
    p.add_argument("circuit", help="circuit JSON path")
    p.add_argument("--expand-cost-model", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_stats)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_PASS
    for flag, low in (("samples", 1), ("seed", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            print(f"error: --{flag} must be >= {low}", file=sys.stderr)
            return EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early is met here, not in the flush at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head -1`): point stdout at devnull so the flush at
        # exit stays quiet, and end with the status of a process killed by SIGPIPE (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ir.CircuitError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
