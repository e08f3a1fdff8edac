"""Basis-state simulation.  Every circuit here is classical-reversible, so a run
tracks one digit per wire: ``run`` for a single basis state, and ``run_batch``
for many at once, for verification sweeps.  Both read what a flip or increment
does to a digit from ``ir.image``.

``run_batch`` is bit-sliced (Biham, FSE 1997) and takes and returns
``Planes``, its only batch form: a wire of dimension d holds its digit in
ceil(log2 d) planes, and plane b is a Python int whose bit r is bit b of row
r's digit.  Inside, ``run_gates`` keeps one level set per digit instead:
``levels[w][v]`` is an int whose bit r is set where wire w holds v on row r.
A control ``(w, v)`` is then ``levels[w][v]``, a flip or increment is an
ordered list of exchanges of its target's levels, computed once per (kind,
params, dim) from ``ir.image``, and a swap exchanges the two wires' levels
digit by digit.  Uncontrolled, an exchange swaps two list entries and does no
int operation; controlled, it is a masked XOR-swap of four.  An operand needs
only ``&``, ``|`` and ``^``.  The rows where a gate put a digit on its target
are that digit's level set after the gate, within the control mask, so
``track_max`` is exact.
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


@functools.lru_cache(maxsize=1024)
def _exchanges(kind: str, params: tuple[int, ...], dim: int):
    """A flip or increment on a wire of ``dim`` as an ordered list of level exchanges.

    Returns ``(pairs, moved)``.  Exchanging the level sets of each pair ``(u, v)`` in
    turn takes every digit to its ``ir.image``: a cycle u -> v -> w -> ... of the
    image is the exchanges (u, v), (u, w), ...  ``moved`` lists the digits the gate
    changes, the only ones it can bring onto the wire.
    """
    to = image(kind, params, dim)
    pairs, done = [], set()
    for u in range(dim):
        if u in done:
            continue
        v = to[u]
        while v != u:
            pairs.append((u, v))
            done.add(v)
            v = to[v]
    return tuple(pairs), tuple(v for v in range(dim) if to[v] != v)


def _exchange(a: list, i: int, b: list, j: int, mask) -> None:
    """Exchange ``a[i]`` and ``b[j]`` on the rows in ``mask``, or on every row when it is None."""
    if mask is None:
        a[i], b[j] = b[j], a[i]
    else:
        d = (a[i] ^ b[j]) & mask
        a[i], b[j] = a[i] ^ d, b[j] ^ d


def run_gates(levels: list[list], dims: tuple[int, ...], gates, floor: int | None = None) -> dict:
    """Apply ``gates`` in place to ``levels``: ``levels[w][v]`` holds the rows where wire w holds v.

    An operand needs only ``&``, ``|`` and ``^``, and an uncontrolled gate uses none of
    them.  With ``floor`` set, returns each digit above ``floor`` that a flip or increment
    put on its target, with the rows where it did; else ``{}``.
    """
    seen: dict = {}
    for g in gates:
        mask = None
        for w, v in g.controls:
            mask = levels[w][v] if mask is None else mask & levels[w][v]
        if g.kind == SWAP:
            t0, t1 = g.targets
            for v in range(dims[t0]):
                _exchange(levels[t0], v, levels[t1], v, mask)
            continue
        t = g.targets[0]
        lv = levels[t]
        pairs, moved = _exchanges(g.kind, g.params, dims[t])
        for u, v in pairs:
            _exchange(lv, u, lv, v, mask)
        if floor is not None:
            for u in moved:
                if u > floor:
                    hit = lv[u] if mask is None else lv[u] & mask
                    seen[u] = hit if u not in seen else seen[u] | hit
    return seen


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
    levels = []
    for w, (planes, dim) in enumerate(zip(states.wires, dims)):
        nb = (dim - 1).bit_length()
        # Split the rows on each plane in turn; codes that need an unlisted plane hold no row.
        lv = [ones]
        for p in planes[:nb]:
            lv = [x ^ (x & p) for x in lv] + [x & p for x in lv]
        lv += [0] * ((1 << nb) - len(lv))
        # Planes past ceil(log2 dim) are only tested for a set bit, never split on.
        if any(lv[dim:]) or any(p & ones for p in planes[nb:]):
            raise ValueError(f"wire {w} holds a digit outside [0, {dim})")
        levels.append(lv[:dim])
    floor = max((v for lv in levels for v, rows in enumerate(lv) if rows), default=0) if track_max else None
    seen = run_gates(levels, dims, c.gates, floor)
    out = [[functools.reduce(operator.or_, (rows for v, rows in enumerate(lv) if v >> b & 1), 0)
            for b in range((len(lv) - 1).bit_length())] for lv in levels]
    return Planes(out, states.n), max([v for v, rows in seen.items() if rows], default=floor or 0)
