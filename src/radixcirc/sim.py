"""Basis-state and statevector simulation.

All circuits built by this package are classical-reversible, so the primary
simulator tracks a single basis state per run (one digit per wire).  A dense
statevector engine is kept as an independent cross-check oracle for small
circuits, and ``run_batch`` vectorizes many basis-state runs with numpy for
verification sweeps.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .ir import FLIP, INCR, SWAP, Circuit, Gate

STATEVECTOR_CAP = 1 << 20


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


def all_basis_states(c: Circuit, bounds: tuple[int, ...] | None = None) -> Iterator[BasisState]:
    """Mixed-radix lexicographic sweep; ``bounds`` restricts per-wire alphabets."""
    dims = c.dims
    bounds = bounds or dims
    for digits in itertools.product(*(range(b) for b in bounds)):
        yield BasisState(digits, dims)


def interface_states(c: Circuit) -> Iterator[BasisState]:
    """All inputs allowed by the circuit's declared interface bounds."""
    return all_basis_states(c, c.input_bounds)


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


# --- statevector cross-check ---------------------------------------------

@dataclass
class Statevector:
    """Dense amplitudes over the mixed-radix basis, wire 0 most significant."""

    amps: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        total = int(np.prod(self.dims)) if self.dims else 1
        if self.amps.shape != (total,):
            raise ValueError(f"expected {total} amplitudes, got {self.amps.shape}")

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def state_index(digits: Iterable[int], dims: tuple[int, ...]) -> int:
    idx = 0
    for d, dim in zip(digits, dims):
        idx = idx * dim + d
    return idx


def statevector_from_basis(s: BasisState) -> Statevector:
    total = int(np.prod(s.dims)) if s.dims else 1
    amps = np.zeros(total, dtype=complex)
    amps[state_index(s.digits, s.dims)] = 1.0
    return Statevector(amps, s.dims)


def uniform_statevector(c: Circuit) -> Statevector:
    total = int(np.prod(c.dims)) if c.dims else 1
    amps = np.full(total, 1.0 / np.sqrt(total), dtype=complex)
    return Statevector(amps, c.dims)


def _gate_permutation(c: Circuit, g: Gate) -> np.ndarray:
    """Index permutation pi with |x> -> |pi(x)|... built from digit arithmetic."""
    dims = c.dims
    total = int(np.prod(dims)) if dims else 1
    strides = np.ones(c.width, dtype=np.int64)
    for i in range(c.width - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    idx = np.arange(total, dtype=np.int64)

    def digit(w: int) -> np.ndarray:
        return (idx // strides[w]) % dims[w]

    mask = np.ones(total, dtype=bool)
    for w, v in g.controls:
        mask &= digit(w) == v
    pi = idx.copy()
    if g.kind == SWAP:
        t0, t1 = g.targets
        d0, d1 = digit(t0), digit(t1)
        pi[mask] += ((d1 - d0) * strides[t0] + (d0 - d1) * strides[t1])[mask]
    else:
        t = g.targets[0]
        dt = digit(t)
        lut = np.array([_permute_digit(g, v, dims[t]) for v in range(dims[t])])
        pi[mask] += ((lut[dt] - dt) * strides[t])[mask]
    return pi


def run_statevector(c: Circuit, v: Statevector) -> Statevector:
    total = int(np.prod(c.dims)) if c.dims else 1
    if total > STATEVECTOR_CAP:
        raise ValueError(f"state space {total} exceeds statevector cap {STATEVECTOR_CAP}")
    if v.dims != c.dims:
        raise ValueError("statevector dims do not match circuit wires")
    amps = v.amps
    for g in c.gates:
        pi = _gate_permutation(c, g)
        out = np.empty_like(amps)
        out[pi] = amps
        amps = out
    return Statevector(amps, c.dims)
