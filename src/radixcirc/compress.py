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
from .ir import Circuit, Gate, Wire, flip, incr


@dataclass(frozen=True)
class CompressionScheme:
    """x-y-z compression acting on groups of m wires, keeping n_out of them."""

    x: int
    y: int
    m: int
    n_out: int

    def __post_init__(self):
        if not feasible(self.x, self.y, self.m, self.n_out):
            raise ValueError(f"infeasible scheme: {self.x}^{self.m} > {self.y}^{self.n_out}")

    @property
    def z(self) -> int:
        """Wires each group frees: the generated ancilla."""
        return self.m - self.n_out

    @property
    def label(self) -> str:
        return f"{self.x}-{self.y}-{self.z}"


def feasible(x: int, y: int, m: int, n_out: int) -> bool:
    """True iff x^m states fit in y^n_out and the group actually shrinks."""
    if x < 2 or y < 2 or m < 1 or n_out < 1:
        raise ValueError("radices must be >= 2 and counts >= 1")
    return 0 < n_out < m and x**m <= y**n_out


SCHEME_231 = CompressionScheme(x=2, y=3, m=3, n_out=2)
SCHEME_241 = CompressionScheme(x=2, y=4, m=2, n_out=1)


def scheme_by_name(name: str) -> CompressionScheme:
    """A built scheme by its label, with or without dashes ("2-3-1" or "231")."""
    for scheme in REGISTRY:
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


def build_compress_231() -> Circuit:
    """The 2-3-1 group compressor on binary-input qutrits A, B, C."""
    circ = ir.new_circuit([Wire(n, 3) for n in "ABC"])
    return ir.place(circ, gates_compress_231(0, 1, 2))


def build_compress_241() -> Circuit:
    """The 2-4-1 group compressor on binary-input ququart A and qubit B."""
    circ = ir.new_circuit([Wire("A", 4), Wire("B", 2)])
    return ir.place(circ, gates_compress_241(0, 1))


# The one scheme registry: each built scheme's group gate emitter.
REGISTRY = {SCHEME_231: gates_compress_231, SCHEME_241: gates_compress_241}


@dataclass(frozen=True)
class CompressedLayout:
    """A block compression: its groups of m wires, compressed in order, and the
    ancilla they free (each group's wires past its first n_out)."""

    groups: tuple[tuple[int, ...], ...]
    ancilla: tuple[int, ...]


def layout_block(wires: list[int], scheme: CompressionScheme) -> CompressedLayout:
    """Group consecutive wires into m-tuples; wires past the last full group stay as they are."""
    if not wires:
        raise ValueError("cannot compress an empty wire list")
    m = scheme.m
    groups = tuple(tuple(wires[i : i + m]) for i in range(0, len(wires) - m + 1, m))
    return CompressedLayout(groups, tuple(w for group in groups for w in group[scheme.n_out :]))


def block_gates(scheme: CompressionScheme, layout: CompressedLayout) -> list[Gate]:
    """The block compressor: each group of ``layout`` compressed in order by the scheme's emitter."""
    try:
        emit = REGISTRY[scheme]
    except KeyError:
        raise ValueError(f"no circuit builder for scheme {scheme.label}") from None
    return [g for group in layout.groups for g in emit(*group)]
