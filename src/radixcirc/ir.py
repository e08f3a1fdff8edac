"""Mixed-radix reversible circuit IR.

A circuit is an ordered list of gates over wires; a wire is a name and a dim
of at most ``MAX_DIM``, and its index is its position.  Gates are
classical-reversible primitives: flips (exchange two digit values),
increments (add k modulo the wire dimension) and swaps, each optionally
conditioned on up to two control wires holding specific digit values.
``image`` alone defines what a flip or increment does to a digit.

Circuits are treated as immutable once built; every function here is pure
except ``extend`` and ``place``, which validate gates and append them to the
circuit they were given during construction and return it for chaining.
Within one build, equal gates from the constructors are one object (``gate``).
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

FLIP = "flip"
INCR = "incr"
SWAP = "swap"

_KINDS = (FLIP, INCR, SWAP)

MAX_DIM = 64  # the largest wire dim: a gate's ``image`` is a table of dim digits


class CircuitError(ValueError):
    """Raised when a wire, gate or circuit invariant is violated."""


@dataclass(frozen=True)
class Wire:
    """A device line with capacity ``dim`` (the number of usable levels)."""

    name: str
    dim: int

    def __post_init__(self):
        if not 2 <= self.dim <= MAX_DIM:
            raise CircuitError(f"wire {self.name!r}: dim must be in [2, {MAX_DIM}], got {self.dim}")


@dataclass(frozen=True, slots=True)
class Gate:
    """A primitive gate: kind, 1-2 targets, kind parameters, 0-2 controls.

    ``params`` is ``(i, j)`` for a flip, ``(k,)`` for an increment and empty
    for a swap.  ``controls`` is a tuple of ``(wire_id, value)`` pairs; the
    gate acts only on basis states where every control wire holds its value.
    """

    kind: str
    targets: tuple[int, ...]
    params: tuple[int, ...] = ()
    controls: tuple[tuple[int, int], ...] = ()
    # Targets then control wires, set by __post_init__; not part of equality or hash.
    _wires: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        n_targets = 2 if self.kind == SWAP else 1
        if len(self.targets) != n_targets:
            raise CircuitError(f"{self.kind} takes {n_targets} target(s), got {len(self.targets)}")
        n_params = {FLIP: 2, INCR: 1, SWAP: 0}[self.kind]
        if len(self.params) != n_params:
            raise CircuitError(f"{self.kind} takes {n_params} param(s), got {len(self.params)}")
        if len(self.controls) > 2:
            raise CircuitError("at most 2 controls are supported")
        touched = tuple(self.targets) + tuple([w for w, _ in self.controls])
        if len(set(touched)) != len(touched):
            raise CircuitError(f"targets and control wires must be pairwise distinct: {list(touched)}")
        object.__setattr__(self, "_wires", touched)

    @property
    def arity(self) -> int:
        return len(self.targets) + len(self.controls)

    def wires(self) -> tuple[int, ...]:
        """All wire ids the gate touches (targets then controls)."""
        return self._wires


@functools.lru_cache(maxsize=1 << 16)
def gate(kind: str, targets: tuple[int, ...], params: tuple[int, ...], controls: tuple[tuple[int, int], ...]) -> Gate:
    """The one ``Gate`` with these fields: a bounded unique table (hash-consing) behind the
    constructors below and ``invert_gates``.  ``place`` empties it as every build ends, so
    equal gates of one build are one object and no gate outlives its build here."""
    return Gate(kind, targets, params, controls)


def flip(target: int, i: int, j: int, controls: Iterable[tuple[int, int]] = ()) -> Gate:
    return gate(FLIP, (target,), (i, j), tuple(controls))


def incr(target: int, k: int, controls: Iterable[tuple[int, int]] = ()) -> Gate:
    return gate(INCR, (target,), (k,), tuple(controls))


def swap(t0: int, t1: int, controls: Iterable[tuple[int, int]] = ()) -> Gate:
    return gate(SWAP, (t0, t1), (), tuple(controls))


def x(target: int, controls: Iterable[tuple[int, int]] = ()) -> Gate:
    """Binary NOT: flip of levels 0 and 1."""
    return flip(target, 0, 1, controls)


def cx(control: int, target: int) -> Gate:
    """Binary CNOT."""
    return flip(target, 0, 1, ((control, 1),))


def ccx(c0: int, c1: int, target: int) -> Gate:
    """Binary Toffoli."""
    return flip(target, 0, 1, ((c0, 1), (c1, 1)))


@functools.lru_cache(maxsize=1024)
def image(kind: str, params: tuple[int, ...], dim: int) -> tuple[int, ...]:
    """The digit each of 0..dim-1 becomes under a flip or increment on a wire of ``dim``."""
    if kind == INCR:
        return tuple((v + params[0]) % dim for v in range(dim))
    i, j = params
    return tuple(j if v == i else i if v == j else v for v in range(dim))


@dataclass
class Circuit:
    """Ordered gates over a fixed wire list.

    ``input_bounds`` declares the per-wire input alphabet the circuit is
    meant to accept; it defaults to binary, ``(2,) * width``, as inputs and
    outputs are binary even on capacity-3 or -4 wires.  It is metadata for
    verification harnesses, not a gate-level constraint.
    """

    wires: tuple[Wire, ...]
    gates: list[Gate] = field(default_factory=list)
    input_bounds: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.input_bounds:
            self.input_bounds = (2,) * len(self.wires)
        if len(self.input_bounds) != len(self.wires):
            raise CircuitError("input_bounds length must match wire count")
        for b, w in zip(self.input_bounds, self.wires):
            if not 2 <= b <= w.dim:
                raise CircuitError(f"input bound {b} invalid for wire {w.name!r} (dim {w.dim})")

    @property
    def width(self) -> int:
        return len(self.wires)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w.dim for w in self.wires)

    def validate_gate(self, g: Gate) -> None:
        # Reads only the wires the gate touches, so validation is O(1) per gate.
        wires = self.wires
        width = len(wires)
        for w in g.wires():
            if not 0 <= w < width:
                raise CircuitError(f"gate touches unknown wire {w}")
        for w, v in g.controls:
            d = wires[w].dim
            if not 0 <= v < d:
                raise CircuitError(f"control value {v} out of range for wire {w} (dim {d})")
        d = wires[g.targets[0]].dim
        if g.kind == FLIP:
            i, j = g.params
            if i == j or not (0 <= i < d and 0 <= j < d):
                raise CircuitError(f"flip({i},{j}) invalid on wire of dim {d}")
        elif g.kind == INCR:
            (k,) = g.params
            if not 0 < k < d:
                raise CircuitError(f"incr({k}) invalid on wire of dim {d}")
        elif d != wires[g.targets[1]].dim:  # SWAP
            raise CircuitError(f"swap requires equal dims, got {d} and {wires[g.targets[1]].dim}")


def new_circuit(wires: Sequence[Wire], input_bounds: Sequence[int] = ()) -> Circuit:
    return Circuit(tuple(wires), [], tuple(input_bounds))


def by_id(gates: Sequence[Gate]) -> dict[int, Gate]:
    """Each distinct gate object of ``gates`` by its ``id``, in order of first use: work that
    depends only on the gate is done once per object and reused for its every use."""
    return dict(zip(map(id, gates), gates))


def extend(c: Circuit, gates: Iterable[Gate]) -> Circuit:
    """Validates each distinct gate object once, then appends every gate; an invalid one
    raises ``CircuitError`` and appends none."""
    gates = list(gates)
    for g in by_id(gates).values():
        c.validate_gate(g)
    c.gates += gates
    return c


def place(c: Circuit, gates: Sequence[Gate]) -> Circuit:
    """``c`` extended by ``gates`` less their adjacent inverse pairs: the end of every
    build, which empties the gate table."""
    try:
        return extend(c, cancel_inverses(gates, c.dims))
    finally:
        gate.cache_clear()


def invert_gates(gates: Sequence[Gate], dims: Sequence[int]) -> list[Gate]:
    """The gates in reverse order, each inverted: an increment by k becomes one by
    d-k on its dim-d target; flips and swaps are self-inverse."""
    return [gate(INCR, g.targets, (dims[g.targets[0]] - g.params[0],), g.controls) if g.kind == INCR else g
            for g in reversed(gates)]


@functools.lru_cache(maxsize=1024)
def _undoes(kind: str, params: tuple[int, ...], then: str, then_params: tuple[int, ...], dim: int) -> bool:
    """Whether a flip or increment followed by another maps every digit back to itself."""
    after = image(then, then_params, dim)
    return all(after[v] == u for u, v in enumerate(image(kind, params, dim)))


def cancel_inverses(gates: Sequence[Gate], dims: Sequence[int]) -> list[Gate]:
    """The gates with every adjacent inverse pair removed, in one linear pass.

    Each wire keeps a stack of the kept gates on it.  A gate g and the kept
    gate h cancel when they have the same targets and controls, h is on top
    of every wire g touches, and g undoes h: g is a swap (equal targets make
    h one too), or h's ``image`` followed by g's composes to the identity.
    Removing h exposes the gates under it, so cancellations cascade, and the
    output has no adjacent inverse pair left: a gate on top of a stack is
    only ever removed by its own partner, so a gate kept above another on a
    wire stays between it and any later gate there.
    """
    kept: list[Gate | None] = []
    stacks: list[list[int]] = [[] for _ in dims]
    for g in gates:
        wires = g.wires()
        top = stacks[wires[0]]
        if top:
            i = top[-1]
            h = kept[i]
            if (h.targets == g.targets and h.controls == g.controls
                    and all(stacks[w][-1] == i for w in wires[1:])
                    and (g.kind == SWAP or _undoes(h.kind, h.params, g.kind, g.params, dims[g.targets[0]]))):
                kept[i] = None
                for w in wires:
                    stacks[w].pop()
                continue
        i = len(kept)
        kept.append(g)
        for w in wires:
            stacks[w].append(i)
    return [g for g in kept if g is not None]


def depth(c: Circuit) -> int:
    """ASAP layering; controls occupy their wires like targets."""
    level = [0] * c.width
    for g in c.gates:
        touched = g.wires()
        layer = 1 + max(map(level.__getitem__, touched))
        for w in touched:
            level[w] = layer
    return max(level, default=0)


# --- JSON interchange ---------------------------------------------------

FORMAT = 1  # the version ``dumps`` writes; a document without "format" is version 0


def _format0_as_format1(d: dict) -> dict:
    """A format-0 document, ``{"wires": [{"name", "dim"}], "gates": [{"kind", "targets",
    "params", "controls": [{"wire", "value"}]}]}``, as format 1 with one table row per
    gate.  Only its objects are unpacked here; the format-1 checks see every value."""
    if type(d.get("wires")) is not list or type(d.get("gates")) is not list:
        raise CircuitError("a circuit document must be an object with 'wires' and 'gates' lists")
    rows = []
    for g in d["gates"]:
        if type(g) is not dict:
            raise CircuitError(f"a gate must be an object, got {g!r}")
        ctl = g.get("controls", [])
        try:
            if type(ctl) is list:
                ctl = [[ct["wire"], ct["value"]] if type(ct) is dict else None for ct in ctl]
            rows.append([g["kind"], g["targets"], g["params"], ctl])
        except KeyError as e:
            raise CircuitError(f"a gate or its control lacks the field {e}: {g!r}") from None
    wires = [[w.get("name"), w.get("dim")] if type(w) is dict else None for w in d["wires"]]
    return {**d, "format": FORMAT, "wires": wires, "table": rows, "gates": list(range(len(rows)))}


def circuit_from_dict(d: dict) -> Circuit:
    """The circuit a parsed ``dumps`` document describes; each table row is validated once.

    Gates that share a row are one frozen ``Gate`` object: validation depends
    only on the gate and the wires.  Every key, JSON type and row index is
    checked, so a malformed document raises ``CircuitError``; an int field
    must be a JSON int, as ``True == 1 == 1.0``.
    """
    if type(d) is dict and "format" not in d and "table" not in d:
        d = _format0_as_format1(d)
    if (type(d) is not dict or d.keys() != {"format", "wires", "table", "gates"} or type(d["format"]) is not int
            or d["format"] != FORMAT or any(type(d[k]) is not list for k in ("wires", "table", "gates"))):
        raise CircuitError(f"a circuit document must be an object with exactly the keys format ({FORMAT}) "
                           "and the lists wires, table and gates")
    for i, w in enumerate(d["wires"]):
        if type(w) is not list or len(w) != 2 or type(w[0]) is not str or type(w[1]) is not int:
            raise CircuitError(f"wire {i} must be a [name, dim] pair with a string name and an int dim, got {w!r}")
    c = new_circuit([Wire(*w) for w in d["wires"]])
    table = []
    for row in d["table"]:
        if (type(row) is not list or len(row) != 4 or type(row[0]) is not str
                or any(type(f) is not list for f in row[1:])):
            raise CircuitError(f"a table row must be [kind, targets, params, controls], a string and three lists, got {row!r}")
        kind, targets, params, ctl = row
        if any(type(ct) is not list or len(ct) != 2 for ct in ctl):
            raise CircuitError(f"gate controls must be [wire, value] pairs, got {ctl!r}")
        for v in targets + params + [x for ct in ctl for x in ct]:
            if type(v) is not int:
                raise CircuitError(f"gate targets, params and controls must be ints, got {v!r}")
        table.append(Gate(kind, tuple(targets), tuple(params), tuple(map(tuple, ctl))))
        c.validate_gate(table[-1])
    for i in d["gates"]:
        if type(i) is not int or not 0 <= i < len(table):
            raise CircuitError(f"a gate must be the index of one of the {len(table)} table rows, got {i!r}")
    c.gates = [table[i] for i in d["gates"]]
    return c


def dumps(c: Circuit) -> str:
    """The format-1 interchange text ``{"format": 1, "wires": [[name, dim]], "table":
    [[kind, targets, params, [[wire, value]]]], "gates": [row]}``: each distinct gate is
    one table row, in order of first use.  ``{`` and each key, wire and row start a
    line, ``gates`` is one line, and ``json.dumps`` writes every value."""
    # Looked up by value once per object, so equal gates that are distinct objects share a row.
    rows: dict[Gate, int] = {}
    row = {i: rows.setdefault(g, len(rows)) for i, g in by_id(c.gates).items()}
    index = list(map(row.__getitem__, map(id, c.gates)))
    wires = ",\n".join(json.dumps([w.name, w.dim]) for w in c.wires)
    table = ",\n".join(json.dumps([g.kind, g.targets, g.params, g.controls]) for g in rows)
    return (f'{{\n"format": {FORMAT},\n"wires": [\n{wires}\n],\n"table": [\n{table}\n],\n'
            f'"gates": {json.dumps(index)}\n}}')


def loads(s: str) -> Circuit:
    """The circuit a ``dumps`` text, or a format-0 text, describes.  Text that is not
    JSON, nests too deep or holds an integer too long to parse raises ``CircuitError``."""
    try:
        doc = json.loads(s)
    except (ValueError, RecursionError) as e:
        raise CircuitError(f"malformed JSON: {e}") from None
    return circuit_from_dict(doc)
