"""Zero-external-ancilla block adders.

The register is split into c blocks.  While one block is being added, every
other block is compressed, and the freed wires supply the ancilla the
carry-lookahead sub-adder needs.  Block carry-outs are parked on ancilla
inside blocks that stay compressed, chained into the next block's carry-in,
and finally cleared in reverse block order, each by the carry-out comparator
on its block's sum.

Feasibility uses exact per-step accounting: the ancilla generated by the
c - 1 compressed blocks must cover the sub-adder's ``ancilla_used`` plus up
to c - 1 live carry slots.  The closed-form worst-case inequality
floor((c-1) * q / (g * c)) >= 2n/c + c - 1 (q = total register qubits,
g = qubits consumed per generated ancilla) selects c and is cross-checked
against the exact accounting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from . import compress as cmp
from . import ir
from .ir import Circuit, Gate, swap
from .qubit_adders import AdderWiring, ancilla_used, carry_out_gates, cla_gates

MODE_AB = "a+b"
MODE_PLUS_K = "+k"
# Registers per mode: A and B for a+b, B alone for +k.
_REGISTERS = {MODE_AB: 2, MODE_PLUS_K: 1}


class InfeasiblePlan(ValueError):
    """Raised when a builder is asked to realize an infeasible plan."""


@dataclass(frozen=True)
class BlockPlan:
    """Block decomposition of one adder instance."""

    mode: str
    scheme: cmp.CompressionScheme
    n: int
    c: int
    # layout() by (carry_in, carry_out): encode_input and decode_output ask for it per call.
    _layouts: dict[tuple[bool, bool], AdderWiring] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Callers construct plans directly, and a plan whose c does not divide n miscompiles.
        if type(self.mode) is not str or self.mode not in _REGISTERS:
            raise ValueError(f"unknown mode {self.mode!r}")
        if type(self.n) is not int or type(self.c) is not int or not 1 <= self.c <= self.n or self.n % self.c:
            raise ValueError(f"plan needs ints 1 <= c <= n with c dividing n, got n={self.n!r}, c={self.c!r}")

    @property
    def registers(self) -> int:
        return _REGISTERS[self.mode]

    @property
    def block_bits(self) -> int:
        return self.n // self.c

    @property
    def block_wires(self) -> int:
        return self.registers * self.block_bits

    def layout(self, carry_in: bool = False, carry_out: bool = False) -> AdderWiring:
        """Where the registers live: a_i, b_i interleaved for A+B, all B for +K,
        then the carry-in and carry-out.  Built once per plan and carry variant."""
        wiring = self._layouts.get((carry_in, carry_out))
        if wiring is None:
            reg = tuple(range(self.registers * self.n))
            a, b = (reg[0::2], reg[1::2]) if self.mode == MODE_AB else ((), reg)
            cin = len(reg) if carry_in else None
            cout = len(reg) + carry_in if carry_out else None
            wiring = self._layouts[carry_in, carry_out] = AdderWiring(a, b, cin, cout)
        return wiring

    def block_registers(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each block's slices of the A and B registers."""
        layout, nb = self.layout(), self.block_bits
        return [(layout.a[j * nb : (j + 1) * nb], layout.b[j * nb : (j + 1) * nb]) for j in range(self.c)]

    @property
    def blocks(self) -> list[list[int]]:
        """Each block's register wires, ascending."""
        return [sorted(a + b) for a, b in self.block_registers()]

    @cached_property
    def block_layouts(self) -> tuple[cmp.CompressedLayout, ...]:
        """Each block's compression groups and the ancilla they free."""
        return tuple(cmp.layout_block(block, self.scheme) for block in self.blocks)

    @property
    def carry_slots(self) -> list[int]:
        """Carry slot for step j lives on block j's first generated ancilla."""
        return [blk.ancilla[0] for blk in self.block_layouts[:-1]]

    @property
    def ancilla_per_step(self) -> int:
        """Generated ancilla available while one block is decompressed."""
        return (self.c - 1) * (self.block_wires // self.scheme.m)


def worst_case_sides(mode: str, scheme: cmp.CompressionScheme, n: int, c: int) -> tuple[int, int]:
    """Both sides of the closed-form bound, which assumes worst-case ancilla demand 2n/c."""
    return ((c - 1) * _REGISTERS[mode] * n) // (scheme.m * c), 2 * n // c + c - 1


def exact_accounting(plan: BlockPlan) -> bool:
    """Per-step check: pool covers the sub-adder plus all live carry slots."""
    return plan.ancilla_per_step >= ancilla_used(plan.block_bits) + plan.c - 1


def _shortfall(plan: BlockPlan) -> str:
    return f"{plan.ancilla_per_step} ancilla per step < {ancilla_used(plan.block_bits) + plan.c - 1} needed"


def _block_counts(mode: str, scheme: cmp.CompressionScheme, n: int) -> Iterator[tuple[int, str | None]]:
    """Each block count c >= 2 dividing n, ascending, with the check it fails (None when
    feasible).  Divisors pair up as (d, n/d) with d <= sqrt(n), so the scan is O(sqrt n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors = small + [n // d for d in reversed(small) if d * d != n]
    for c in divisors[1:]:
        lhs, rhs = worst_case_sides(mode, scheme, n, c)
        if lhs < rhs:
            yield c, f"bound {lhs} < {rhs}"
            continue
        plan = BlockPlan(mode, scheme, n, c)
        yield c, None if exact_accounting(plan) else f"accounting {_shortfall(plan)}"


def plan_blocks(mode: str, scheme: cmp.CompressionScheme, n: int) -> BlockPlan | None:
    """Smallest feasible block count, or None when no c divides n and passes.

    Only c | n is supported; remainder blocks are rejected rather than
    planned.  A candidate must pass both the worst-case inequality and the
    exact per-step accounting.
    """
    if mode not in _REGISTERS:
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError("register size must be >= 1")
    for c, failed in _block_counts(mode, scheme, n):
        if failed is None:
            return BlockPlan(mode, scheme, n, c)
    return None


def infeasible_reason(mode: str, scheme: cmp.CompressionScheme, n: int) -> str:
    """Why ``plan_blocks`` finds no plan: the check each block count c | n fails."""
    fails = [f"c={c}: {failed}" for c, failed in _block_counts(mode, scheme, n) if failed]
    return (f"infeasible (mode {mode}, scheme {scheme.label}, n={n}): no block count c >= 2 dividing n "
            f"passes both the worst-case bound floor((c-1)*{_REGISTERS[mode]}n/({scheme.m}c)) >= 2n/c + c - 1 "
            f"and the exact per-step accounting; " + ("; ".join(fails) or "n has no such c"))


def plan_of(circ: Circuit) -> BlockPlan | None:
    """The plan ``plan_blocks`` makes for the block adder whose wires are exactly
    ``circ.wires``; None for any other circuit.

    The candidate is read off the wires: wire 0 is ``a1`` only in an A+B adder, the
    carries are named ``cin`` and ``cout``, the rest is the register, and its dim is
    the scheme's y.
    """
    names = [w.name for w in circ.wires]
    if not names:
        return None
    mode = MODE_AB if names[0] == "a1" else MODE_PLUS_K
    carry_in, carry_out = "cin" in names, "cout" in names
    n, rest = divmod(circ.width - carry_in - carry_out, _REGISTERS[mode])
    if rest or n < 1:
        return None
    for scheme in cmp.REGISTRY:
        if scheme.y == circ.wires[0].dim:
            plan = plan_blocks(mode, scheme, n)
            if plan is not None and plan.layout(carry_in, carry_out).new_circuit(scheme.y).wires == circ.wires:
                return plan
    return None


# --- construction ----------------------------------------------------------

def _emit(plan: BlockPlan, k: int | None, carry_in: bool, carry_out: bool) -> Circuit:
    """The block schedule as one rule.

    Compress every block.  Step j decompresses block j, adds it, recompresses
    it and (but for the last block) parks its carry-out, written on the last
    free pool wire, in block j's carry slot.  Undo, for j = c-2 down to 0:
    unpark carry j, decompress block j, clear the carry with the carry-out
    comparator and recompress.  Finally, decompress every block.  Each
    block's compressor, each step's sub-adder and each undo step's comparator
    is built once.  ``ir.cancel_inverses`` then drops what undoes itself:
    block 0, compressed and at once decompressed at the start and at the end,
    a group compressed and decompressed with no use of its ancilla in
    between, the comparator's carries the carry-out never reads, and the
    cascades these expose.
    """
    if not exact_accounting(plan):
        raise InfeasiblePlan(
            f"plan (mode={plan.mode}, scheme={plan.scheme.label}, n={plan.n}, c={plan.c}): {_shortfall(plan)}"
        )
    layout = plan.layout(carry_in, carry_out)
    circ = layout.new_circuit(plan.scheme.y)
    dims = circ.dims
    c, nb, need, slots = plan.c, plan.block_bits, ancilla_used(plan.block_bits), plan.carry_slots
    compress = [cmp.block_gates(plan.scheme, blk) for blk in plan.block_layouts]
    decompress = [ir.invert_gates(gates, dims) for gates in compress]

    def k_block(j: int) -> int | None:
        return None if k is None else (k >> (j * nb)) & ((1 << nb) - 1)

    # Step j adds block j with carry-in from the previous step's slot, on the other blocks'
    # freed wires that hold no parked carry: its ancilla first, its carry-out on the last
    # (on the wire right after the ancilla, the 2-3-1 n=60 adder is 255 layers deep, not 248).
    steps: list[tuple[AdderWiring, list[Gate]]] = []
    for j, (a, b) in enumerate(plan.block_registers()):
        parked = set(slots[:j])
        pool = sorted(w for i, blk in enumerate(plan.block_layouts) if i != j for w in blk.ancilla if w not in parked)
        cin = layout.carry_in if j == 0 else slots[j - 1]
        cout = pool[-1] if j < c - 1 else layout.carry_out
        wiring = AdderWiring(a, b, cin, cout, tuple(pool[:need]))
        steps.append((wiring, cla_gates(wiring, k=k_block(j))))

    gates = [g for blk in compress for g in blk]
    for j, (wiring, cla) in enumerate(steps):
        gates += decompress[j] + cla + compress[j]
        if j < c - 1:
            gates.append(swap(wiring.carry_out, slots[j]))
    for j in range(c - 2, -1, -1):
        wiring = steps[j][0]
        gates.append(swap(slots[j], wiring.carry_out))
        gates += decompress[j] + carry_out_gates(wiring, k=k_block(j)) + compress[j]
    gates += [g for blk in decompress for g in blk]
    return ir.place(circ, gates)


def build_block_adder(plan: BlockPlan, carry_in: bool = False, carry_out: bool = False) -> Circuit:
    """The in-place A+B block adder over exactly 2n register wires."""
    if plan.mode != MODE_AB:
        raise ValueError(f"plan mode is {plan.mode!r}, expected {MODE_AB!r}")
    return _emit(plan, None, carry_in, carry_out)


def build_block_plus_k(plan: BlockPlan, k: int, carry_in: bool = False, carry_out: bool = False) -> Circuit:
    """The in-place B += k block adder over exactly n register wires."""
    if plan.mode != MODE_PLUS_K:
        raise ValueError(f"plan mode is {plan.mode!r}, expected {MODE_PLUS_K!r}")
    if k is None or not 0 <= k < (1 << plan.n):
        raise ValueError(f"constant {k} out of range for {plan.n} bits")
    return _emit(plan, k, carry_in, carry_out)


# --- encode/decode helpers for oracles and the CLI -------------------------

def encode_input(plan: BlockPlan, b_value: int, a_value: int | None = None, cin: int | None = None,
                 carry_in: bool = False, carry_out: bool = False) -> list[int]:
    return plan.layout(carry_in, carry_out).encode(a_value or 0, b_value, cin or 0)


def decode_output(plan: BlockPlan, digits, carry_in: bool = False, carry_out: bool = False):
    """Returns (a_value or None, sum_value, cout or None)."""
    return plan.layout(carry_in, carry_out).decode(digits)
