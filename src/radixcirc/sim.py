"""Basis-state simulation.  Every circuit here is classical-reversible, so a run
tracks one digit per wire: ``run`` for a single basis state, and ``run_batch``
for many at once, for verification sweeps.  Both read what a flip or increment
does to a digit from ``ir.image``.

``run_batch`` is bit-sliced (Biham, FSE 1997).  A wire of dimension d holds
its digit in ceil(log2 d) bits; every wire is packed once into as many
planes as the widest wire needs, and a narrower wire's extra planes stay 0.
Plane b of a wire is an array of ``uint64`` words whose bit r % 64 of word
r // 64 is bit b of row r's digit, with the rows padded to a multiple of 64.
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


# Rows are packed and unpacked this many at a time (a multiple of 64), so no
# temporary array grows with the batch: the only full-size one is the output.
_CHUNK_ROWS = 1024

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


def _pack(mat: np.ndarray, n_planes: int, dtype: np.dtype) -> list[list[np.ndarray]]:
    """Each wire's planes, ``n_planes`` of them; rows past ``len(mat)`` are zero."""
    n, width = mat.shape
    levels = np.zeros((n_planes, width, -(-n // 64)), dtype=np.uint64)
    for r0 in range(0, n, _CHUNK_ROWS):
        digits = mat[r0:r0 + _CHUNK_ROWS].T.astype(dtype, order="C")
        for b in range(n_planes):
            packed = np.packbits(digits & (1 << b), axis=1, bitorder="little")
            levels[b].view(np.uint8)[:, r0 // 8:r0 // 8 + packed.shape[1]] = packed
    return [list(wire) for wire in zip(*levels)]


def _unpack(planes: list[list[np.ndarray]], n: int, n_planes: int, dtype: np.dtype) -> np.ndarray:
    """The first ``n`` rows of the planes as an (n, width) int64 array."""
    levels = [np.stack([wire[b] for wire in planes]) for b in range(n_planes)]
    out = np.empty((n, len(planes)), dtype=np.int64)
    for r0 in range(0, n, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n - r0)
        digits = np.zeros((len(planes), rows), dtype=dtype)
        for b, words in enumerate(levels):
            chunk = words[:, r0 // 64:(r0 + rows + 63) // 64].view(np.uint8)
            bits = np.unpackbits(chunk, axis=1, count=rows, bitorder="little").astype(dtype, copy=False)
            bits <<= b
            digits |= bits
        out[r0:r0 + rows] = digits.T
    return out


def run_batch(
    c: Circuit,
    states: np.ndarray,
    track_max: bool = False,
) -> tuple[np.ndarray, int]:
    """Run many basis states at once, 64 to a machine word.

    ``states`` is an (n_states, width) integer array whose digits lie in
    ``[0, dim)`` of their wires, else ``ValueError``; it is not modified.
    Returns a new (n_states, width) int64 array of outputs and, when
    ``track_max`` is set, the largest digit observed on any wire at any point
    during execution (inputs included), else 0.
    """
    dims = c.dims
    mat = np.asarray(states, dtype=np.int64)
    if mat.ndim != 2 or mat.shape[1] != c.width:
        raise ValueError(f"expected shape (*, {c.width}), got {mat.shape}")
    # A negative digit reads as a huge unsigned one, so one comparison catches both ends.
    top = mat.view(np.uint64).max(axis=0, initial=0)
    bad = np.flatnonzero(top >= np.array(dims, dtype=np.uint64))
    if bad.size:
        w = int(bad[0])
        raise ValueError(f"wire {w} holds a digit outside [0, {dims[w]})")
    n = mat.shape[0]
    top_dim = max(dims, default=1)
    n_planes, dtype = (top_dim - 1).bit_length(), np.min_scalar_type(top_dim - 1)
    planes = _pack(mat, n_planes, dtype)
    input_max = int(top.max(initial=0)) if track_max else 0
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
    max_digit = input_max
    if seen:
        valid = np.packbits(np.arange(len(planes[0][0]) * 64) < n, bitorder="little").view(np.uint64)
        max_digit = max([v for v, rows in seen.items() if (rows & valid).any()], default=input_max)
    return _unpack(planes, n, n_planes, dtype), max_digit
