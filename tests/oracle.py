"""Independent test oracle: the adder contract as big-integer arithmetic
(``adder_inputs``, ``adder_outputs``), a dense statevector simulator,
basis-state sweeps, ASAP depth by pairwise comparison of gates
(``reference_depth``), the reference format-1 document ``ir.dumps`` must
write (``circuit_to_doc``) and the format-0 document earlier versions wrote
(``circuit_to_dict``), and the only conversions between dense (n, width)
rows and ``sim.Levels`` (``to_levels``, ``from_levels``), written with
numpy's bit packing and ``int.from_bytes``/``int.to_bytes``.  ``run_rows``
runs ``sim.run_batch``, which takes ``Levels`` only, on dense rows through
them.

The statevector engine defines the gate semantics itself (``_digit_map``),
so comparing it with ``sim.run`` and ``sim.run_batch`` compares two
implementations.  It is capped at 2^20 amplitudes and meant for small
circuits only.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from radixcirc import ir, sim
from radixcirc.ir import FLIP, SWAP, Circuit, Gate
from radixcirc.qubit_adders import AdderWiring
from radixcirc.sim import BasisState, Levels

STATEVECTOR_CAP = 1 << 20


def adder_inputs(layout: AdderWiring, width: int, rng: np.random.Generator | None = None,
                 samples: int = 0) -> np.ndarray:
    """Binary rows on ``layout.inputs`` (A, B, carry-in), 0 on every other wire.

    Without ``rng``, every combination; with it, the all-zeros row, the
    all-ones row and ``samples`` random rows.
    """
    cols = layout.inputs
    if rng is None:
        bits = np.array(list(itertools.product((0, 1), repeat=len(cols))), dtype=np.int64)
    else:
        bits = np.vstack([np.zeros(len(cols)), np.ones(len(cols)), rng.integers(0, 2, size=(samples, len(cols)))])
    ins = np.zeros((len(bits), width), dtype=np.int64)
    ins[:, cols] = bits
    return ins


def adder_outputs(layout: AdderWiring, ins: np.ndarray, k: int | None = None) -> np.ndarray:
    """The in-place adder contract on whole rows, in big integers: B becomes
    (A, or ``k`` when the layout has no A) + B + c_in mod 2^n, the carry-out
    wire gets the overflow bit, and every other column keeps its input value."""

    def value(cols: tuple[int, ...]) -> np.ndarray:
        out = np.zeros(len(ins), dtype=object)
        for i, col in enumerate(cols):
            out += ins[:, col].astype(object) << i
        return out

    addend = value(layout.a) if layout.a else int(k)
    cin = ins[:, layout.carry_in].astype(object) if layout.carry_in is not None else 0
    total = addend + value(layout.b) + cin
    exp = ins.copy()
    for i, col in enumerate(layout.b):
        exp[:, col] = (total >> i) & 1
    if layout.carry_out is not None:
        exp[:, layout.carry_out] = total >> len(layout.b)
    return exp


def to_levels(states: np.ndarray, dims: tuple[int, ...]) -> Levels:
    """Dense (n, width) digits as ``Levels``, ``dim`` levels per wire, each below 2**n.
    A digit outside ``[0, dim)`` of its wire raises ``ValueError``.  Level v of every wire
    comes from one ``packbits`` of the rows' ``== v`` matrix, whatever the row count."""
    states = np.asarray(states)[:, :len(dims)]
    outside = ((states < 0) | (states >= np.asarray(dims, dtype=np.int64))).any(axis=0)
    if outside.any():
        w = int(outside.argmax())
        raise ValueError(f"wire {w} holds a digit outside [0, {dims[w]})")
    size = -(-len(states) // 8)
    wires = [[] for _ in dims]
    for v in range(max(dims, default=0)):
        packed = np.packbits(states == v, axis=0, bitorder="little").T.tobytes()
        for w, dim in enumerate(dims):
            if v < dim:
                wires[w].append(int.from_bytes(packed[w * size:(w + 1) * size], "little"))
    return Levels(wires, len(states))


def from_levels(p: Levels, dtype=np.int64) -> np.ndarray:
    """The (n, width) digits of the first ``p.n`` rows of ``p``.  A row that is in no
    level of a wire, or in two, raises ``ValueError``.  Level v of every wire is unpacked
    by one ``unpackbits``, whatever the row count."""
    size, width, mask = -(-p.n // 8), len(p.wires), (1 << p.n) - 1
    out = np.zeros((p.n, width), dtype=dtype)
    hits = np.zeros((p.n, width), dtype=np.int64)
    for v in range(max(map(len, p.wires), default=0)):
        packed = b"".join((lv[v] & mask if v < len(lv) else 0).to_bytes(size, "little") for lv in p.wires)
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(width, size), axis=1,
                             bitorder="little")[:, :p.n].T
        out += bits.astype(dtype) * v
        hits += bits
    wrong = (hits != 1).any(axis=0)
    if wrong.any():
        raise ValueError(f"wire {int(wrong.argmax())} does not hold exactly one digit on every row")
    return out


def run_rows(c: Circuit, rows: np.ndarray, track_max: bool = False) -> tuple[np.ndarray, int]:
    """``sim.run_batch`` on dense (n, width) rows: the output rows and the largest digit."""
    out, max_digit = sim.run_batch(c, to_levels(rows, c.dims), track_max)
    return from_levels(out), max_digit


def all_basis_states(c: Circuit, bounds: tuple[int, ...] | None = None) -> Iterator[BasisState]:
    """Mixed-radix lexicographic sweep; ``bounds`` restricts per-wire alphabets."""
    dims = c.dims
    bounds = bounds or dims
    for digits in itertools.product(*(range(b) for b in bounds)):
        yield BasisState(digits, dims)


def interface_states(c: Circuit) -> Iterator[BasisState]:
    """Every binary input: each wire holds 0 or 1."""
    return all_basis_states(c, (2,) * c.width)


def reference_depth(c: Circuit) -> int:
    """ASAP depth by pairwise comparison: each gate's layer is 1 + the largest layer of
    any earlier gate that shares a wire with it (0 when none does)."""
    layers: list[int] = []
    for g in c.gates:
        wires = set(g.wires())
        earlier = [layer for h, layer in zip(c.gates, layers) if wires & set(h.wires())]
        layers.append(1 + max(earlier, default=0))
    return max(layers, default=0)


def circuit_to_doc(c: Circuit) -> dict:
    """The format-1 document: each distinct (kind, targets, params, controls) is one
    table row, numbered in order of first use, and ``gates`` holds each gate's row."""
    rows: dict[tuple, int] = {}
    index = []
    for g in c.gates:
        key = (g.kind, tuple(g.targets), tuple(g.params), tuple(tuple(ct) for ct in g.controls))
        if key not in rows:
            rows[key] = len(rows)
        index.append(rows[key])
    return {
        "format": 1,
        "wires": [[w.name, w.dim] for w in c.wires],
        "table": [[kind, list(t), list(p), [list(ct) for ct in ctl]] for kind, t, p, ctl in rows],
        "gates": index,
    }


def circuit_to_dict(c: Circuit) -> dict:
    """The format-0 document: one object per wire and per gate."""
    return {
        "wires": [{"name": w.name, "dim": w.dim} for w in c.wires],
        "gates": [
            {
                "kind": g.kind,
                "targets": list(g.targets),
                "params": list(g.params),
                "controls": [{"wire": w, "value": v} for w, v in g.controls],
            }
            for g in c.gates
        ],
    }


def forward_then_inverse(c: Circuit) -> Circuit:
    """``c`` followed by its inverse: the identity when ``ir.invert_gates`` is right."""
    out = ir.new_circuit(c.wires)
    return ir.extend(out, [*c.gates, *ir.invert_gates(c.gates, c.dims)])


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


def _digit_map(g: Gate, dim: int) -> np.ndarray:
    """Image of each digit 0..dim-1 under a flip or increment on its target."""
    lut = np.arange(dim)
    if g.kind == FLIP:
        i, j = g.params
        lut[i], lut[j] = j, i
        return lut
    return (lut + g.params[0]) % dim


def _gate_permutation(c: Circuit, g: Gate) -> np.ndarray:
    """Index permutation pi with |x> -> |pi(x)>, built from digit arithmetic."""
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
        pi[mask] += ((_digit_map(g, dims[t])[dt] - dt) * strides[t])[mask]
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
