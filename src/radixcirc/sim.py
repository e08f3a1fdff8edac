"""Basis-state simulation.  Every circuit here is classical-reversible, so a run
tracks one digit per wire: ``run`` for a single basis state, and ``run_batch``
for many at once, for verification sweeps.  Both read what a flip or increment
does to a digit from ``ir.image``.

``run`` compiles a circuit on its first run into one tuple per gate, ``(w0, v0, w1, v1,
t, u, table)``, built once per distinct gate object and shared by its uses: where w0
holds v0 and w1 holds v1, it swaps wires t and u when ``table`` is None, else maps t's
digit by ``table``, the ``ir.image``; a missing control names wire ``width``, a slot
held at 0.  The program is cached on the circuit, keyed by its wires,
gate list and gate count, so ``ir.extend`` recompiles.  A compile costs more than a
gate-by-gate walk, so only a circuit object that is run again gains from it.

``run_batch`` is bit-sliced (Biham, FSE 1997) and takes and returns
``Levels``, its only batch form: ``wires[w][v]`` is a Python int whose bit r is
set where wire w holds v on row r, one level set per digit.  Its gate loop,
``run_gates``, works on the same lists.  A control ``(w, v)`` is then
``levels[w][v]``, a flip or increment is an ordered list of exchanges of its
target's levels, computed once per (kind, params, dim) from ``ir.image``, and a
swap exchanges the two wires' levels digit by digit.  Uncontrolled, an exchange
swaps two list entries and does no int operation; controlled, it is a masked
XOR-swap of four.  An operand needs only ``&``, ``|`` and ``^``.  The rows where
a gate put a digit on its target are that digit's level set after the gate,
within the control mask, so ``track_max`` is exact.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable

from .ir import SWAP, Circuit, CircuitError, by_id, image


@dataclass(frozen=True)
class BasisState:
    """One integer digit (any object with ``__index__``) per wire, each below the wire's dimension."""

    digits: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) != len(self.dims):
            raise ValueError("digit count must match wire count")
        for d, dim in zip(self.digits, self.dims):
            if not (hasattr(type(d), "__index__") and 0 <= d < dim):
                raise ValueError(f"digit {d!r} is not an integer in [0, {dim})")


def basis_state(circuit: Circuit, digits: Iterable[int]) -> BasisState:
    return BasisState(tuple(digits), circuit.dims)


def run(c: Circuit, s: BasisState) -> BasisState:
    """The state after ``c``: each gate whose controls hold swaps or maps its targets by ``ir.image``."""
    key, got = (c.wires, c.gates, len(c.gates)), c.__dict__.get("_program")
    if got is None or got[0] != key:
        dims, pad, ops, by_dim = c.dims, (c.width, 0), {}, {}
        # Wire -> its dim's image tables by params (a swap's () is None); a lookup checks the wire.
        on = {w: by_dim.setdefault(d, {(): None}) for w, d in enumerate(dims)}
        try:
            for i, g in by_id(c.gates).items():
                ctl, t, u = g.controls, g.targets[0], g.targets[-1]
                tables, _ = on[t], on[u]
                if g.params not in tables:
                    tables[g.params] = image(g.kind, g.params, dims[t])
                w0, v0 = ctl[0] if ctl else pad
                w1, v1 = ctl[1] if len(ctl) == 2 else pad
                if ctl:
                    on[w0], on[w1 if len(ctl) == 2 else w0]
                ops[i] = (w0, v0, w1, v1, t, u, tables[g.params])
        except KeyError:
            raise CircuitError("a gate touches a wire outside the circuit") from None
        got = c.__dict__["_program"] = key, dims, list(map(ops.__getitem__, map(id, c.gates)))
    _, dims, program = got
    if s.dims != dims:
        raise ValueError("state dims do not match circuit wires")
    digits = [*s.digits, 0]
    for w0, v0, w1, v1, t, u, table in program:
        if digits[w0] == v0 and digits[w1] == v1:
            if table is None:
                digits[t], digits[u] = digits[u], digits[t]
            else:
                digits[t] = table[digits[t]]
    return BasisState(tuple(digits[:-1]), dims)


@dataclass
class Levels:
    """A batch of ``n`` basis states: ``wires[w][v]`` is a Python int whose bit r is set where
    wire w holds v on row r.  A level a wire does not list is empty; every level is below 2**n."""

    wires: list[list[int]]
    n: int

    def __len__(self) -> int:
        return self.n

    def row(self, r: int) -> list[int]:
        """Row ``r``'s digit on each wire."""
        return [next(v for v, rows in enumerate(levels) if rows >> r & 1) for levels in self.wires]


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


def run_batch(c: Circuit, states: Levels, track_max: bool = False) -> tuple[Levels, int]:
    """Run a ``Levels`` batch of basis states through ``c`` with ``run_gates``.

    ``states`` has one entry per wire of ``c``, each a list of at most ``dim`` non-negative
    Python ints below ``2**n``, and every row is in exactly one listed level of each wire,
    else ``ValueError`` naming the wire; it is not modified.  Returns the outputs, ``dim``
    levels per wire, and, when ``track_max`` is set, the largest digit on any wire at any
    point during execution (inputs included), else 0.
    """
    dims = c.dims
    if len(states.wires) != c.width:
        raise ValueError(f"expected {c.width} wires, got {len(states.wires)}")
    ones = (1 << states.n) - 1
    levels = []
    for w, (lv, dim) in enumerate(zip(states.wires, dims)):
        if not all(isinstance(x, int) for x in lv):
            raise ValueError(f"wire {w} has a level that is not a Python int")
        if len(lv) > dim:
            raise ValueError(f"wire {w} lists {len(lv)} levels, more than its dim {dim}")
        # An OR of ``ones`` puts every level in [0, 2**n); then a sum of ``ones`` puts no row in two.
        if functools.reduce(operator.or_, lv, 0) != ones or sum(lv) != ones:
            raise ValueError(f"wire {w} does not hold exactly one digit on every row below {states.n}, and none above")
        levels.append(lv + [0] * (dim - len(lv)))
    floor = max((v for lv in levels for v, rows in enumerate(lv) if rows), default=0) if track_max else None
    seen = run_gates(levels, dims, c.gates, floor)
    return Levels(levels, states.n), max([v for v, rows in seen.items() if rows], default=floor or 0)
