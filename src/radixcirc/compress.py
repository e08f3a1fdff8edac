"""Qubit-qudit compression circuits.

A compression scheme x-y-z stores m radix-x digits into n radix-y digits
and leaves z = m - n wires cleared to 0 (generated ancilla).  Builders are
provided for 2-3-1 (three qubits into two qutrits) and 2-4-1 (two qubits
into one ququart); other schemes are covered by the feasibility predicate
only.

The 2-3-1 reference construction was synthesized against the compression
truth table (third output always 0 on binary inputs): six singly-controlled
two-qutrit gates plus a single 2-controlled gate.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import ir
from .ir import Circuit, CircuitError, Gate, Wire, flip, incr


@dataclass(frozen=True)
class CompressionScheme:
    """x-y-z compression acting on groups of m wires, keeping n_out of them."""

    x: int
    y: int
    z: int
    m: int
    n_out: int

    def __post_init__(self):
        if not feasible(self.x, self.y, self.m, self.n_out):
            raise ValueError(f"infeasible scheme: {self.x}^{self.m} > {self.y}^{self.n_out}")
        if self.m - self.n_out != self.z:
            raise ValueError(f"z must equal m - n_out, got {self.z} != {self.m}-{self.n_out}")

    @property
    def label(self) -> str:
        return f"{self.x}-{self.y}-{self.z}"


def feasible(x: int, y: int, m: int, n_out: int) -> bool:
    """True iff x^m states fit in y^n_out and the group actually shrinks."""
    if x < 2 or y < 2 or m < 1 or n_out < 1:
        raise ValueError("radices must be >= 2 and counts >= 1")
    return 0 < n_out < m and x**m <= y**n_out


SCHEME_231 = CompressionScheme(x=2, y=3, z=1, m=3, n_out=2)
SCHEME_241 = CompressionScheme(x=2, y=4, z=1, m=2, n_out=1)


def scheme_by_name(name: str) -> CompressionScheme:
    """A built scheme by its label, with or without dashes ("2-3-1" or "231")."""
    for scheme in _REGISTRY:
        if name in (scheme.label, scheme.label.replace("-", "")):
            return scheme
    raise ValueError(f"unknown scheme {name!r}; supported: 231, 241")


def gates_compress_231(a: int, b: int, c: int) -> list[Gate]:
    """Gate sequence storing binary (a, b, c) into qutrits (a, b); c ends at 0."""
    return [
        flip(b, 0, 2, [(c, 1)]),
        flip(a, 0, 2, [(b, 2)]),
        flip(b, 1, 2, [(a, 2)]),
        flip(a, 1, 2, [(b, 2)]),
        flip(b, 1, 2, [(c, 1)]),
        flip(c, 0, 1, [(b, 2)]),
        flip(c, 0, 1, [(a, 2), (b, 1)]),
    ]


def gates_compress_241(a: int, b: int) -> list[Gate]:
    """Store binary (a, b) into ququart a as a + 2b; b ends at 0."""
    return [
        incr(a, 2, [(b, 1)]),
        flip(b, 0, 1, [(a, 2)]),
        flip(b, 0, 1, [(a, 3)]),
    ]


def build_compress_231(a: Wire | None = None, b: Wire | None = None, c: Wire | None = None) -> Circuit:
    if a is None:
        a, b, c = (Wire(i, n, 3) for i, n in enumerate("ABC"))
    for w in (a, b, c):
        if w.dim < 3:
            raise CircuitError(f"2-3-1 compression needs dim >= 3 on wire {w.name!r}")
    circ = ir.new_circuit([a, b, c], input_bounds=(2, 2, 2))
    return ir.extend(circ, gates_compress_231(a.id, b.id, c.id))


def build_compress_241(a: Wire | None = None, b: Wire | None = None) -> Circuit:
    if a is None:
        a, b = Wire(0, "A", 4), Wire(1, "B", 2)
    if a.dim < 4:
        raise CircuitError(f"2-4-1 compression needs dim >= 4 on wire {a.name!r}")
    circ = ir.new_circuit([a, b], input_bounds=(2, 2))
    return ir.extend(circ, gates_compress_241(a.id, b.id))


# The one scheme registry: each built scheme's group gate emitter and its
# standalone group circuit.
_REGISTRY = {
    SCHEME_231: (gates_compress_231, build_compress_231),
    SCHEME_241: (gates_compress_241, build_compress_241),
}


def _registered(scheme: CompressionScheme):
    try:
        return _REGISTRY[scheme]
    except KeyError:
        raise ValueError(f"no circuit builder for scheme {scheme.label}") from None


def build_decompress(scheme: CompressionScheme, wires: list[Wire] | None = None) -> Circuit:
    """Inverse of the group compressor; the last wire is the consumed ancilla."""
    _, build = _registered(scheme)
    return ir.inverse(build(*(wires or ())))


def group_gates(scheme: CompressionScheme, wires: tuple[int, ...]) -> list[Gate]:
    emit, _ = _registered(scheme)
    return emit(*wires)


@dataclass(frozen=True)
class CompressedLayout:
    """Bookkeeping for a block compression: which wires encode which, in order."""

    groups: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
    leftover: tuple[int, ...]

    @property
    def ancilla(self) -> tuple[int, ...]:
        return tuple(w for _, _, anc in self.groups for w in anc)

    def to_dict(self) -> dict:
        return {
            "groups": [
                {"orig": list(orig), "storage": list(storage), "ancilla": list(anc)}
                for orig, storage, anc in self.groups
            ],
            "leftover": list(self.leftover),
        }


def layout_block(wires: list[int], scheme: CompressionScheme) -> CompressedLayout:
    """Group consecutive wires into m-tuples; the tail of each group is its ancilla."""
    if not wires:
        raise ValueError("cannot compress an empty wire list")
    m, n_out = scheme.m, scheme.n_out
    groups = []
    full = len(wires) // m
    for g in range(full):
        chunk = tuple(wires[g * m : (g + 1) * m])
        groups.append((chunk, chunk[:n_out], chunk[n_out:]))
    return CompressedLayout(tuple(groups), tuple(wires[full * m :]))


def block_gates(scheme: CompressionScheme, layout: CompressedLayout) -> list[Gate]:
    """The block compressor: each group of ``layout`` compressed in order."""
    return [g for orig, _, _ in layout.groups for g in group_gates(scheme, orig)]
