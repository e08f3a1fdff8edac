"""Basis-state simulation.  Every circuit here is classical-reversible, so a run
tracks one digit per wire: ``run`` for a single basis state, and ``run_batch``
for many at once, for verification sweeps.  Both read what a flip or increment
does to a digit from ``ir.image``.

``run_batch`` is bit-sliced (Biham, FSE 1997) and works on ``Planes``, its
only batch form, in and out: a wire of dimension d holds its digit in
ceil(log2 d) planes, and plane b is a Python int whose bit r is bit b of row
r's digit.  ``run_batch`` checks the planes and masks them to n bits, and
``run_gates``, the gate loop, needs of a plane only ``&``, ``|`` and ``^``.
A control ``(w, v)`` is the AND of wire w's plane literals for v; codes d
and above never occur, so literals that only exclude them are dropped (on a
qutrit, digit 2 is plane 1 alone).  A flip or increment XORs into each plane
b of its target the AND of its controls with the OR of the target digits
whose image differs from them in bit b; that toggle table is computed once
per (kind, params, dim).  An uncontrolled X costs one XOR, an uncontrolled
swap exchanges the two wires' planes, and a controlled swap is a masked
XOR-swap of each plane pair.  A gate thus costs a few n-bit int operations
per plane for n rows.

``track_max`` stays exact.  Digit 3 on a ququart needs both of its bits set
in the same row at once, so OR-ing each plane over time would overstate the
maximum when 1 and 2 occur in different rows or at different times.  Each
flip and increment instead marks, per digit it moves that exceeds the
inputs' largest, the rows where it put that digit on its target; a swap
only exchanges digits already present.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ir import SWAP, Circuit, image


@dataclass(frozen=True)
class BasisState:
    """One integer digit per wire, each below the wire's dimension."""

    digits: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) != len(self.dims):
            raise ValueError("digit count must match wire count")
        for d, dim in zip(self.digits, self.dims):
            if not isinstance(d, (int, np.integer)) or not 0 <= d < dim:
                raise ValueError(f"digit {d!r} is not an integer in [0, {dim})")


def basis_state(circuit: Circuit, digits: Iterable[int]) -> BasisState:
    return BasisState(tuple(digits), circuit.dims)


def run(c: Circuit, s: BasisState) -> BasisState:
    """The state after ``c``: each gate whose controls hold swaps or maps its targets by ``ir.image``."""
    if s.dims != c.dims:
        raise ValueError("state dims do not match circuit wires")
    dims = s.dims
    digits = list(s.digits)
    for g in c.gates:
        for w, v in g.controls:
            if digits[w] != v:
                break
        else:
            if g.kind == SWAP:
                t0, t1 = g.targets
                digits[t0], digits[t1] = digits[t1], digits[t0]
            else:
                t = g.targets[0]
                digits[t] = image(g.kind, g.params, dims[t])[digits[t]]
    return BasisState(tuple(digits), dims)


@dataclass
class Planes:
    """A batch of ``n`` basis states: ``wires[w][b]`` is bit b of wire w's digits as one
    Python int, row r at bit r.  A plane a wire does not list is 0; bits n and up are ignored."""

    wires: list[list[int]]
    n: int

    def __len__(self) -> int:
        return self.n

    def row(self, r: int) -> list[int]:
        """Row ``r``'s digit on each wire."""
        return [sum((p >> r & 1) << b for b, p in enumerate(planes)) for planes in self.wires]


Literal = tuple[int, bool]  # (plane index, whether the bit is set)
Cube = tuple[Literal, ...]  # AND of literals; the empty cube is all ones


@functools.lru_cache(maxsize=1024)
def _cover(digits: frozenset[int], dim: int) -> tuple[Cube, ...]:
    """Cubes whose OR holds exactly on ``digits`` among the codes below ``dim``.

    Each cube grows greedily from a digit not yet covered, dropping a literal
    while the cube still matches no code below ``dim`` outside ``digits``.
    """
    n_bits = (dim - 1).bit_length()
    cubes, left = [], set(digits)
    while left:
        v = min(left)
        care = (1 << n_bits) - 1
        for b in reversed(range(n_bits)):
            wider = care & ~(1 << b)
            if all(u in digits for u in range(dim) if u & wider == v & wider):
                care = wider
        cubes.append(tuple((b, bool(v >> b & 1)) for b in range(n_bits) if care >> b & 1))
        left -= {u for u in range(dim) if u & care == v & care}
    return tuple(cubes)


@functools.lru_cache(maxsize=1024)
def _eq_cube(v: int, dim: int) -> Cube:
    """The literals whose AND holds exactly where a wire of ``dim`` holds ``v``."""
    return _cover(frozenset((v,)), dim)[0]


@functools.lru_cache(maxsize=1024)
def _lowering(kind: str, params: tuple[int, ...], dim: int):
    """A flip or increment on a wire of ``dim`` as XORs into its planes.

    Returns ``(groups, moved)``.  Plane b toggles on the digits whose
    ``ir.image`` differs from them in bit b; planes that toggle on the same digits share a
    group ``(cubes, bits)``, whose ``cubes`` cover those digits.  ``moved``
    pairs each digit the gate changes with its ``_eq_cube``; they are the only
    digits the gate can bring onto the wire.
    """
    to = image(kind, params, dim)
    toggles: dict[frozenset[int], list[int]] = {}
    for b in range((dim - 1).bit_length()):
        flipped = frozenset(v for v in range(dim) if (v ^ to[v]) >> b & 1)
        if flipped:
            toggles.setdefault(flipped, []).append(b)
    groups = tuple((_cover(s, dim), tuple(bits)) for s, bits in toggles.items())
    moved = tuple((v, _eq_cube(v, dim)) for v in range(dim) if to[v] != v)
    return groups, moved


def _and(a, b):
    """AND of two planes, where None stands for all ones."""
    if a is None:
        return b
    return a if b is None else a & b


def _eval_cube(planes: list, cube: Cube, ones):
    acc = None
    for b, bit_set in cube:
        acc = _and(acc, planes[b] if bit_set else planes[b] ^ ones)
    return acc


def _eval_cover(planes: list, cubes: tuple[Cube, ...], ones):
    # Only a cover of every code below dim has an empty cube (None), and then no other.
    return functools.reduce(operator.or_, (_eval_cube(planes, cube, ones) for cube in cubes))


def run_gates(planes: list[list], dims: tuple[int, ...], gates, ones, floor: int | None = None) -> dict:
    """Apply ``gates`` in place to ``planes``, wire w's ceil(log2 dims[w]) planes at ``planes[w]``.

    An operand needs only ``&``, ``|`` and ``^``: ``ones``, the all-ones operand, replaces
    ``~`` (a negative number on a Python int), and None stands for it in masks.  With
    ``floor`` set, returns each digit above ``floor`` that a flip or increment put on its
    target, with the rows where it did; else ``{}``.
    """
    seen: dict = {}
    for g in gates:
        mask = None
        for w, v in g.controls:
            mask = _and(mask, _eval_cube(planes[w], _eq_cube(v, dims[w]), ones))
        if g.kind == SWAP:
            t0, t1 = g.targets
            if mask is None:
                planes[t0], planes[t1] = planes[t1], planes[t0]
                continue
            p0, p1 = planes[t0], planes[t1]
            for b in range((dims[t0] - 1).bit_length()):
                d = (p0[b] ^ p1[b]) & mask
                p0[b], p1[b] = p0[b] ^ d, p1[b] ^ d
            continue
        t = g.targets[0]
        p = planes[t]
        groups, moved = _lowering(g.kind, g.params, dims[t])
        # Every toggle reads the target's planes as they were before the gate.
        toggles = [(_and(mask, _eval_cover(p, cubes, ones)), bits) for cubes, bits in groups]
        for x, bits in toggles:
            for b in bits:
                p[b] ^= ones if x is None else x
        if floor is not None:
            for v, cube in moved:
                if v > floor:
                    hit = _and(mask, _eval_cube(p, cube, ones))
                    seen[v] = hit if v not in seen else seen[v] | hit
    return seen


def _top(planes: list[int], ones: int) -> int:
    """The largest code the ``planes`` of one wire hold on a row set in ``ones``."""
    codes = 1 << len(planes)
    return next((v for v in reversed(range(1, codes)) if _eval_cube(planes, _eq_cube(v, codes), ones)), 0)


def run_batch(c: Circuit, states: Planes, track_max: bool = False) -> tuple[Planes, int]:
    """Run a ``Planes`` batch of basis states through ``c`` with ``run_gates``.

    ``states`` has one entry per wire of ``c``, each plane a Python int, and its digits
    on rows below ``n`` lie in ``[0, dim)`` of their wires, else ``ValueError``; it is
    not modified.  Returns the outputs, ceil(log2 dim) planes per wire below ``2**n``,
    and, when ``track_max`` is set, the largest digit on any wire at any point during
    execution (inputs included), else 0.  Bits n and above are neither checked nor counted.
    """
    dims = c.dims
    if len(states.wires) != c.width:
        raise ValueError(f"expected {c.width} wires, got {len(states.wires)}")
    for w, p in enumerate(states.wires):
        if not all(isinstance(x, int) for x in p):
            raise ValueError(f"wire {w} has a plane that is not a Python int")
    ones = (1 << states.n) - 1
    wires = [[x & ones for x in p] for p in states.wires]
    widths = [(d - 1).bit_length() for d in dims]
    top = [_top(p[:nb], ones) for p, nb in zip(wires, widths)]
    bad = [w for w, (p, nb, t, dim) in enumerate(zip(wires, widths, top, dims)) if t >= dim or any(p[nb:])]
    if bad:
        raise ValueError(f"wire {bad[0]} holds a digit outside [0, {dims[bad[0]]})")
    # Unlisted planes are zero; planes past ceil(log2 dim) are, as just checked.
    planes = [p[:nb] + [0] * (nb - len(p)) for p, nb in zip(wires, widths)]
    floor = max(top, default=0) if track_max else None
    seen = run_gates(planes, dims, c.gates, ones, floor)
    return Planes(planes, states.n), max([v for v, rows in seen.items() if rows], default=floor or 0)
