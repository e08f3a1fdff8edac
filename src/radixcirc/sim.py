"""Basis-state simulation.  Every circuit here is classical-reversible, so a run
tracks one digit per wire: ``run`` for a single basis state, and ``run_batch``
for many at once, vectorized with numpy for verification sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ir import FLIP, INCR, SWAP, Circuit, Gate


@dataclass(frozen=True)
class BasisState:
    """One digit per wire, each below the wire's dimension."""

    digits: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) != len(self.dims):
            raise ValueError("digit count must match wire count")
        for d, dim in zip(self.digits, self.dims):
            if not 0 <= d < dim:
                raise ValueError(f"digit {d} out of range for dim {dim}")


def basis_state(circuit: Circuit, digits: Iterable[int]) -> BasisState:
    return BasisState(tuple(digits), circuit.dims)


def _permute_digit(g: Gate, value: int, dim: int) -> int:
    if g.kind == FLIP:
        i, j = g.params
        if value == i:
            return j
        if value == j:
            return i
        return value
    # INCR
    return (value + g.params[0]) % dim


def _apply(digits: list[int], dims: tuple[int, ...], g: Gate) -> None:
    """Apply one gate to a mutable digit list; identity unless every control matches."""
    for w, v in g.controls:
        if digits[w] != v:
            return
    if g.kind == SWAP:
        t0, t1 = g.targets
        digits[t0], digits[t1] = digits[t1], digits[t0]
    else:
        t = g.targets[0]
        digits[t] = _permute_digit(g, digits[t], dims[t])


def run(c: Circuit, s: BasisState) -> BasisState:
    if s.dims != c.dims:
        raise ValueError("state dims do not match circuit wires")
    digits = list(s.digits)
    for g in c.gates:
        _apply(digits, s.dims, g)
    return BasisState(tuple(digits), s.dims)


def run_batch(
    c: Circuit,
    states: np.ndarray,
    track_max: bool = False,
) -> tuple[np.ndarray, int]:
    """Run many basis states at once.

    ``states`` is an (n_states, width) integer array; a copy is transformed
    in place gate by gate.  Returns the output array and, when ``track_max``
    is set, the largest digit observed on any wire at any point during
    execution (inputs included).
    """
    mat = np.array(states, dtype=np.int64, copy=True)
    if mat.ndim != 2 or mat.shape[1] != c.width:
        raise ValueError(f"expected shape (*, {c.width}), got {mat.shape}")
    max_digit = int(mat.max()) if (track_max and mat.size) else 0
    dims = c.dims
    n = mat.shape[0]
    for g in c.gates:
        if g.controls:
            mask = np.ones(n, dtype=bool)
            for w, v in g.controls:
                mask &= mat[:, w] == v
        else:
            mask = slice(None)
        if g.kind == SWAP:
            t0, t1 = g.targets
            col = mat[mask, t0].copy()
            mat[mask, t0] = mat[mask, t1]
            mat[mask, t1] = col
        else:
            t = g.targets[0]
            lut = np.array([_permute_digit(g, v, dims[t]) for v in range(dims[t])])
            mat[mask, t] = lut[mat[mask, t]]
        if track_max:
            for t in g.targets:
                col = mat[mask, t]
                if col.size:
                    max_digit = max(max_digit, int(col.max()))
    return mat, max_digit
