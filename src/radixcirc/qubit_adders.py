"""Binary in-place sub-adders.

One gate emitter per adder returns its gate list for the wire layout it is
given, after checking that layout.  Both share one contract (B' = A + B +
c_in mod 2^n in place, A preserved, supplied ancilla restored to 0, optional
carry-out on a separate zero-initialized interface wire):

* ``cla_gates`` - carry-lookahead with a Brent-Kung style prefix tree over
  generate/propagate bits, O(log n) depth: the carries, then the sum, then
  the same carry computation run backwards on ~S to clear the carries.  With a
  constant k in place of A, gates controlled on a_i are dropped (k_i = 0) or
  demoted (k_i = 1).
* ``ripple_gates`` - O(n) depth, zero ancilla, for sizes where block
  compression is infeasible.

Beside them, ``carry_out_gates`` is the comparator that clears an adder's
carry-out from its sum: it XORs the carry-out of ~B + A + c_in (~B + k + c_in)
into the carry-out wire with the same carry computation and prefix tree,
O(log n) depth.  Both it and ``cla_gates`` need ``ancilla_used(n)`` ancilla
and touch exactly those with a carry-out (the CLA at most those without).

The block builder places ``cla_gates`` and ``carry_out_gates`` on its block
layouts; ``build_*`` place an emitter on the canonical layout, less its
adjacent inverse pairs (``ir.place``).  All gates
emitted here are binary (flips of levels 0/1 with value-1 controls), so they
are safe on wires of any capacity >= 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import ir
from .ir import Circuit, Gate, Wire, ccx, cx, x


def ancilla_required(m: int) -> int:
    """Worst-case ancilla of the carry-lookahead adder: 2m - w(m) - floor(log2 m)."""
    if m < 1:
        raise ValueError("register size must be >= 1")
    return 2 * m - m.bit_count() - (m.bit_length() - 1)


def ancilla_used(m: int) -> int:
    """Ancilla every carry-lookahead emitter checks and every builder reserves:
    ``ancilla_required(m) - 1``, what ``cla_gates`` and ``carry_out_gates`` touch."""
    return ancilla_required(m) - 1


@dataclass(frozen=True)
class AdderWiring:
    """Where an adder's registers live in its host circuit, LSB first.

    This is the one register layout: builders place gates by it, and input
    encoding, output decoding and the verify oracle read values through it.
    A layout of a whole circuit names every wire: ``a{i}``, ``b{i}``,
    ``cin``, ``cout`` and ``z{i}`` for the ancilla.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    carry_in: int | None = None
    carry_out: int | None = None
    ancilla: tuple[int, ...] = ()

    def __post_init__(self):
        wires = self.wire_ids()
        if len(set(wires)) != len(wires):
            raise ValueError("adder wiring has colliding wires")

    def wire_ids(self) -> list[int]:
        """Every wire the layout names: A, B, the carries, then the ancilla."""
        carries = [w for w in (self.carry_in, self.carry_out) if w is not None]
        return [*self.a, *self.b, *carries, *self.ancilla]

    @property
    def width(self) -> int:
        return len(self.wire_ids())

    @property
    def inputs(self) -> list[int]:
        """Wires that take input values (A, B and the carry-in), ascending."""
        cin = [] if self.carry_in is None else [self.carry_in]
        return sorted([*self.a, *self.b, *cin])

    def names(self) -> dict[int, str]:
        named = {w: f"a{i + 1}" for i, w in enumerate(self.a)}
        named.update({w: f"b{i + 1}" for i, w in enumerate(self.b)})
        for w, name in ((self.carry_in, "cin"), (self.carry_out, "cout")):
            if w is not None:
                named[w] = name
        named.update({w: f"z{i + 1}" for i, w in enumerate(self.ancilla)})
        return named

    def new_circuit(self, dim: int = 2) -> Circuit:
        """An empty circuit over exactly the named wires, with binary inputs.

        Register and ancilla wires have capacity ``dim``; the carries are qubits.
        """
        names = self.names()
        carries = (self.carry_in, self.carry_out)
        wires = [Wire(names[i], 2 if i in carries else dim) for i in range(self.width)]
        return ir.new_circuit(wires)

    def encode(self, a: int, b: int, cin: int = 0) -> list[int]:
        """Input digits, wire 0 first: A, B and the carry-in; 0 on every other wire.
        A value its register cannot hold raises ``ValueError`` (an absent one holds only 0)."""
        digits = [0] * self.width
        for name, reg, value in (("A", self.a, a), ("B", self.b, b)):
            if not 0 <= value < 1 << len(reg):
                raise ValueError(f"{name} value {value} does not fit in {len(reg)} bits")
            for i, w in enumerate(reg):
                digits[w] = (value >> i) & 1
        if cin not in (0, 1) or (cin and self.carry_in is None):
            raise ValueError(f"carry-in {cin} is not a bit the layout can hold")
        if cin:
            digits[self.carry_in] = cin
        return digits

    def decode(self, digits) -> tuple[int | None, int, int | None]:
        """(A, B, carry-out) read from digits; None for a register the layout lacks."""

        def value(reg: tuple[int, ...]) -> int:
            return sum(int(digits[w]) << i for i, w in enumerate(reg))

        cout = None if self.carry_out is None else int(digits[self.carry_out])
        return (value(self.a) if self.a else None), value(self.b), cout


def _check_wiring(w: AdderWiring, k: int | None = None, ancilla: Callable[[int], int] = lambda n: 0) -> int:
    """n = len(B), after checking n >= 1, n A wires (none when the constant ``k`` is given),
    ``ancilla(n)`` ancilla and 0 <= k < 2^n."""
    n = len(w.b)
    if n < 1:
        raise ValueError("register size must be >= 1")
    n_a = 0 if k is not None else n
    if len(w.a) != n_a:
        raise ValueError(f"A register must have {n_a} wires for {n} B wires, got {len(w.a)}")
    if len(w.ancilla) < ancilla(n):
        raise ValueError(f"insufficient ancilla: need {ancilla(n)}, got {len(w.ancilla)}")
    if k is not None and not 0 <= k < (1 << n):
        raise ValueError(f"constant {k} out of range for {n} bits")
    return n


# --- carry network -------------------------------------------------------

def _network_gates(m: int, p: dict[int, int], g: list[int | None], pool: list[int]) -> list[Gate]:
    """Prefix-carry rounds over positions 1..m.

    ``p[i]`` holds the propagate bit of position i (1-indexed, 1..m-1 used);
    ``g[i]`` holds the generate of position i-1 on entry and the carry into
    position i on exit.  Tree nodes are drawn from ``pool`` and are restored
    to 0 by the trailing inverse propagate rounds.
    """
    if m < 2:
        return []
    levels = m.bit_length() - 1
    node: dict[tuple[int, int], int] = {(0, i): p[i] for i in range(1, m)}
    alloc = iter(pool)
    p_rounds: list[Gate] = []
    for t in range(1, levels + 1):
        for mm in range(1, (m >> t)):
            node[(t, mm)] = next(alloc)
            p_rounds.append(ccx(node[(t - 1, 2 * mm)], node[(t - 1, 2 * mm + 1)], node[(t, mm)]))
    g_rounds: list[Gate] = []
    for t in range(1, levels + 1):
        for mm in range(m >> t):
            g_rounds.append(ccx(g[(mm << t) + (1 << (t - 1))], node[(t - 1, 2 * mm + 1)], g[(mm + 1) << t]))
    c_rounds: list[Gate] = []
    top = (2 * m // 3).bit_length() - 1
    for t in range(top, 0, -1):
        for mm in range(1, ((m - (1 << (t - 1))) >> t) + 1):
            c_rounds.append(ccx(g[mm << t], node[(t - 1, 2 * mm)], g[(mm << t) + (1 << (t - 1))]))
    return p_rounds + g_rounds + c_rounds + [gate for gate in reversed(p_rounds)]


def _propagate(w: AdderWiring, k: int | None, i: int) -> list[Gate]:
    """Fold a_i (bit i of the constant ``k``, when given) into b_i."""
    if k is None:
        return [cx(w.a[i], w.b[i])]
    return [x(w.b[i])] if (k >> i) & 1 else []


def _carries(w: AdderWiring, k: int | None, m: int, props: int) -> list[Gate]:
    """Generate and propagate layers, the carry-in fold, then the prefix tree:
    the carry into position i <= m of A + B + c_in (k + B + c_in when ``k`` is
    given) is XORed into z[i].

    z[i] is ancilla i for i < n and the carry-out wire for i = n; tree nodes
    come from the ancilla after those.  The generate a_i AND b_i goes into
    z[i+1] for i < m, and a_i is folded into b_i for i < props.
    """
    n = len(w.b)
    z = [None, *w.ancilla[: n - 1], w.carry_out]
    if k is None:
        gates = [ccx(w.a[i], w.b[i], z[i + 1]) for i in range(m)]
    else:
        gates = [cx(w.b[i], z[i + 1]) for i in range(m) if (k >> i) & 1]
    gates += [g for i in range(props) for g in _propagate(w, k, i)]
    if w.carry_in is not None and m >= 1:
        gates.append(ccx(w.carry_in, w.b[0], z[1]))
    return gates + _network_gates(m, {i: w.b[i] for i in range(1, m)}, z, list(w.ancilla[n - 1 :]))


def cla_gates(w: AdderWiring, k: int | None = None) -> list[Gate]:
    """Carry-lookahead gate list on layout ``w``, using the carries it names; when
    ``k`` is given the A register is the constant k and a-controlled gates are specialized away."""
    n = _check_wiring(w, k, ancilla_used)
    gates = _carries(w, k, n if w.carry_out is not None else n - 1, n)
    # sum layer
    gates += [cx(w.ancilla[i - 1], w.b[i]) for i in range(1, n)]
    if w.carry_in is not None:
        gates.append(cx(w.carry_in, w.b[0]))
    # z[1..n-1] are also the carries of A + ~S + c_in over the low n-1 bits,
    # so that computation, run backwards (every gate is a flip), clears them.
    not_s = [g for i in range(n - 1) for g in (*_propagate(w, k, i), x(w.b[i]))]
    return gates + not_s + _carries(w, k, n - 1, n - 1)[::-1] + [x(w.b[i]) for i in range(n - 1)]


def carry_out_gates(w: AdderWiring, k: int | None = None) -> list[Gate]:
    """Comparator on layout ``w``: XOR into its carry-out wire the carry-out of
    ~B + A + c_in (~B + k + c_in when ``k`` is given), restoring every other wire.

    After ``cla_gates`` left S = A + B + c_in mod 2^n in B, that bit is the
    carry-out it wrote, so this clears it.  Only the carries of ~B + A + c_in
    are computed, with the carry-out wire as the top carry; then the same
    gates run backwards, all but those on the carry-out wire, which no gate
    reads.  It touches the first ``ancilla_used(n)`` ancilla.
    """
    n = _check_wiring(w, k, ancilla_used)
    if w.carry_out is None:
        raise ValueError("the comparator needs a carry-out wire")
    not_b = [x(b) for b in w.b]
    carries = _carries(w, k, n, n)
    return not_b + carries + [g for g in reversed(carries) if g.targets[0] != w.carry_out] + not_b


# --- ripple fallback ------------------------------------------------------

def ripple_gates(w: AdderWiring) -> list[Gate]:
    """Ripple-carry gate list on layout ``w``, with the carries ``w`` names; it needs no ancilla."""
    n = _check_wiring(w)
    has_cout = w.carry_out is not None
    gates: list[Gate] = []
    if w.carry_in is not None:
        # majority/unmajority ripple chain seeded by the carry-in wire
        chain = [w.carry_in] + list(w.a)

        def maj(x0: int, y: int, z0: int) -> list[Gate]:
            return [cx(z0, y), cx(z0, x0), ccx(x0, y, z0)]

        def uma(x0: int, y: int, z0: int) -> list[Gate]:
            return [ccx(x0, y, z0), cx(z0, x0), cx(x0, y)]

        for i in range(n):
            gates += maj(chain[i], w.b[i], w.a[i])
        if has_cout:
            gates.append(cx(w.a[n - 1], w.carry_out))
        for i in range(n - 1, -1, -1):
            gates += uma(chain[i], w.b[i], w.a[i])
        return gates

    # No carry-in: carry ladder rippled through the A register itself.
    if n == 1:
        if has_cout:
            gates.append(ccx(w.a[0], w.b[0], w.carry_out))
        gates.append(cx(w.a[0], w.b[0]))
        return gates
    for i in range(1, n):
        gates.append(cx(w.a[i], w.b[i]))
    if has_cout:
        gates.append(cx(w.a[n - 1], w.carry_out))
    spread = [cx(w.a[i], w.a[i + 1]) for i in range(n - 2, 0, -1)]
    gates += spread
    for i in range(n - 1):
        gates.append(ccx(w.a[i], w.b[i], w.a[i + 1]))
    if has_cout:
        gates.append(ccx(w.a[n - 1], w.b[n - 1], w.carry_out))
    for i in range(n - 1, 0, -1):
        gates.append(cx(w.a[i], w.b[i]))
        gates.append(ccx(w.a[i - 1], w.b[i - 1], w.a[i]))
    gates += spread[::-1]
    for i in range(n):
        gates.append(cx(w.a[i], w.b[i]))
    return gates


# --- public builders -------------------------------------------------------

@dataclass
class BuiltAdder:
    """A standalone adder circuit plus the wiring that locates its registers."""

    circuit: Circuit
    wiring: AdderWiring


def _canonical(n: int, n_a: int, carry_in: bool, carry_out: bool, n_ancilla: int) -> AdderWiring:
    """Standalone layout: a, b, then the carry-in and carry-out, then the ancilla."""
    pos = n_a + n
    cin = pos if carry_in else None
    cout = pos + carry_in if carry_out else None
    pos += carry_in + carry_out
    return AdderWiring(
        a=tuple(range(n_a)),
        b=tuple(range(n_a, n_a + n)),
        carry_in=cin,
        carry_out=cout,
        ancilla=tuple(range(pos, pos + n_ancilla)),
    )


def _placed(wiring: AdderWiring, gates: list[Gate]) -> BuiltAdder:
    """The circuit of ``wiring``'s wires holding ``gates`` less their adjacent inverse pairs."""
    return BuiltAdder(ir.place(wiring.new_circuit(), gates), wiring)


def build_cla_adder(n: int, carry_in: bool = False, carry_out: bool = False) -> BuiltAdder:
    """Log-depth in-place adder: a, b, carries, then ``ancilla_used(n)`` ancilla."""
    wiring = _canonical(n, n, carry_in, carry_out, ancilla_used(n))
    return _placed(wiring, cla_gates(wiring))


def build_plus_k(n: int, k: int, carry_in: bool = False, carry_out: bool = False) -> BuiltAdder:
    """In-place B += k: b, carries, then ``ancilla_used(n)`` ancilla."""
    wiring = _canonical(n, 0, carry_in, carry_out, ancilla_used(n))
    return _placed(wiring, cla_gates(wiring, k=k))


def build_ripple_adder(n: int, carry_in: bool = False, carry_out: bool = False) -> BuiltAdder:
    """Linear-depth in-place adder with zero ancilla: a, b, carries."""
    wiring = _canonical(n, n, carry_in, carry_out, 0)
    return _placed(wiring, ripple_gates(wiring))
