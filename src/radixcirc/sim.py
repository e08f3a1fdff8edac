"""Basis-state simulation.  Every circuit here is classical-reversible, so a run
tracks one digit per wire: ``run`` for a single basis state, and ``run_batch``
for many at once, for verification sweeps.  Both read what a flip or increment
does to a digit from ``ir.image``.

``run_batch`` is bit-sliced (Biham, FSE 1997) and works on ``Planes``: a
wire of dimension d holds its digit in ceil(log2 d) planes, and plane b is
an array of ``uint64`` words whose bit r % 64 of word r // 64 is bit b of
row r's digit, with the rows padded to a multiple of 64.  ``Planes`` is its
only batch form, in and out: ``radixcirc verify`` draws, checks and
compares its batches as planes, and never builds a dense matrix.
A control ``(w, v)`` is the AND of wire w's plane literals for v; codes d
and above never occur, so literals that only exclude them are dropped (on a
qutrit, digit 2 is plane 1 alone).  A flip or increment XORs into each plane
b of its target the AND of its controls with the OR of the target digits
whose image differs from them in bit b; that toggle table is computed once
per (kind, params, dim).  An uncontrolled X costs one XOR, an uncontrolled
swap exchanges the two wires' planes, and a controlled swap is a masked
XOR-swap of each plane pair.  A gate thus costs a few word operations over
N/64 words per plane for N rows.

``track_max`` stays exact.  Digit 3 on a ququart needs both of its bits set
in the same row at once, so OR-ing each plane over time would overstate the
maximum when 1 and 2 occur in different rows or at different times.  Each
flip and increment instead marks, per digit it moves that exceeds the
inputs' largest, the rows where it put that digit on its target; a swap
only exchanges digits already present.
"""
from __future__ import annotations

import functools
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
    """A batch of ``n`` basis states: ``wires[w][b]`` is bit b of wire w's digits
    as ``-(-n // 64)`` ``uint64`` words, row r at bit r % 64 of word r // 64.  A
    plane a wire does not list is 0, and rows n and above are padding."""

    wires: list[list[np.ndarray]]
    n: int

    def __len__(self) -> int:
        return self.n

    def row(self, r: int) -> list[int]:
        """Row ``r``'s digit on each wire."""
        word, bit = divmod(r, 64)
        return [sum((int(p[word]) >> bit & 1) << b for b, p in enumerate(planes)) for planes in self.wires]


def row_mask(n: int) -> np.ndarray:
    """The words whose set bits are exactly rows 0..n-1."""
    return np.where(np.arange(-(-n // 64)) < n // 64, ~np.uint64(0), np.uint64((1 << n % 64) - 1))


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


def _and(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """AND of two word arrays, where None stands for all ones."""
    if a is None:
        return b
    return a if b is None else a & b


def _eval_cube(planes: list[np.ndarray], cube: Cube) -> np.ndarray | None:
    acc = None
    for b, bit_set in cube:
        acc = _and(acc, planes[b] if bit_set else ~planes[b])
    return acc


def _eval_cover(planes: list[np.ndarray], cubes: tuple[Cube, ...]) -> np.ndarray | None:
    acc = _eval_cube(planes, cubes[0])
    for cube in cubes[1:]:
        x = _eval_cube(planes, cube)
        if acc is None or x is None:
            return None
        acc = acc | x
    return acc


def _top(planes: list[np.ndarray], valid: np.ndarray) -> int:
    """The largest code the ``planes`` of one wire hold on a row set in ``valid``."""
    codes = 1 << len(planes)
    return next((v for v in reversed(range(1, codes)) if (_eval_cube(planes, _eq_cube(v, codes)) & valid).any()), 0)


def run_batch(c: Circuit, states: Planes, track_max: bool = False) -> tuple[Planes, int]:
    """Run a ``Planes`` batch of basis states at once, 64 to a machine word.

    ``states`` has one entry per wire of ``c``, and its digits on rows below
    ``n`` lie in ``[0, dim)`` of their wires, else ``ValueError``; it is not
    modified.  Returns the outputs as a ``Planes`` with ceil(log2 dim) planes
    per wire and, when ``track_max`` is set, the largest digit observed on any
    wire at any point during execution (inputs included), else 0.  Padding
    rows are neither checked nor counted.
    """
    dims = c.dims
    if len(states.wires) != c.width:
        raise ValueError(f"expected {c.width} wires, got {len(states.wires)}")
    n = states.n
    valid = row_mask(n)
    top = [_top(p, valid) for p in states.wires]
    bad = [w for w, (t, dim) in enumerate(zip(top, dims)) if t >= dim]
    if bad:
        raise ValueError(f"wire {bad[0]} holds a digit outside [0, {dims[bad[0]]})")
    # Unlisted planes are zero; planes past ceil(log2 dim) are, as just checked.
    zero = np.zeros_like(valid)
    planes = [p[:nb] + [zero] * (nb - len(p)) for p, nb in zip(states.wires, ((d - 1).bit_length() for d in dims))]
    input_max = max(top, default=0) if track_max else 0
    seen: dict[int, np.ndarray] = {}  # digit -> rows where a gate put it on its target
    for g in c.gates:
        mask = None
        for w, v in g.controls:
            mask = _and(mask, _eval_cube(planes[w], _eq_cube(v, dims[w])))
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
        toggles = [(_and(mask, _eval_cover(p, cubes)), bits) for cubes, bits in groups]
        for x, bits in toggles:
            for b in bits:
                p[b] = ~p[b] if x is None else p[b] ^ x
        if track_max:
            for v, cube in moved:
                if v > input_max:
                    hit = _and(mask, _eval_cube(p, cube))
                    seen[v] = hit if v not in seen else seen[v] | hit
    max_digit = max([v for v, rows in seen.items() if (rows & valid).any()], default=input_max)
    return Planes(planes, n), max_digit
