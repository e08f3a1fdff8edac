"""Resource reports and the 2-controlled gate cost model.

Gates are bucketed by (arity, dim class) where arity counts targets plus
controls and the dim class is the largest capacity among the wires a gate
touches.  A 2-controlled gate can be expanded into 6 two-qudit and 10
single-qudit gates; ``expand_cost_model`` applies that substitution to the
counts.  Depth is not remodeled by expansion, so expanded reports carry the
pre-expansion depth and say so.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace

from . import ir
from .ir import Circuit

TWO_CONTROLLED_EXPANSION = {2: 6, 1: 10}


@dataclass(frozen=True)
class ResourceReport:
    """Aggregate counts for one circuit.

    ``gate_counts`` maps (arity, dim_class) to a count; ``max_dim_touched`` is its
    largest dim class.  ``depth_exact`` is False after cost-model expansion, when the
    stored depth describes the unexpanded circuit.  ``ancilla_generated`` is filled
    in by callers that know the plan (it cannot be read off the gate list).
    """

    width: int
    depth: int
    gate_counts: dict[tuple[int, int], int] = field(default_factory=dict)
    ancilla_generated: int | None = None
    depth_exact: bool = True

    @property
    def total_gates(self) -> int:
        return sum(self.gate_counts.values())

    @property
    def max_dim_touched(self) -> int:
        return max((dim for _, dim in self.gate_counts), default=0)

    def count_by_arity(self, arity: int) -> int:
        return sum(n for (a, _), n in self.gate_counts.items() if a == arity)

    def to_dict(self) -> dict:
        d = {
            "width": self.width,
            "depth": self.depth,
            "depth_exact": self.depth_exact,
            "total_gates": self.total_gates,
            "max_dim_touched": self.max_dim_touched,
            "gate_counts": [
                {"arity": a, "dim": dim, "count": n}
                for (a, dim), n in sorted(self.gate_counts.items())
            ],
        }
        if self.ancilla_generated is not None:
            d["ancilla_generated"] = self.ancilla_generated
        return d


def report(c: Circuit, ancilla_generated: int | None = None) -> ResourceReport:
    """Exact per-bucket gate counts plus depth and touched-dim maximum; each distinct gate
    object is bucketed once and counted as often as the circuit uses it."""
    dims, uses = c.dims, Counter(map(id, c.gates))
    counts: dict[tuple[int, int], int] = {}
    for i, g in ir.by_id(c.gates).items():
        key = (g.arity, max(map(dims.__getitem__, g.wires())))
        counts[key] = counts.get(key, 0) + uses[i]
    return ResourceReport(
        width=c.width,
        depth=ir.depth(c),
        gate_counts=counts,
        ancilla_generated=ancilla_generated,
    )


def expand_cost_model(r: ResourceReport) -> ResourceReport:
    """Replace every 2-controlled gate by 6 two-qudit and 10 single-qudit gates.

    Counts with arity <= 2 pass through.  The depth field is kept as the
    pre-expansion value and marked inexact; idempotent once no arity-3
    buckets remain.
    """
    if not r.count_by_arity(3):
        return r
    counts: dict[tuple[int, int], int] = {}
    for (arity, dim), n in r.gate_counts.items():
        if arity == 3:
            for new_arity, factor in TWO_CONTROLLED_EXPANSION.items():
                key = (new_arity, dim)
                counts[key] = counts.get(key, 0) + factor * n
        else:
            counts[(arity, dim)] = counts.get((arity, dim), 0) + n
    return replace(r, gate_counts=counts, depth_exact=False)


# --- serialization ---------------------------------------------------------

CSV_FIELDS = (
    "width",
    "depth",
    "depth_exact",
    "total_gates",
    "single_qudit",
    "two_qudit",
    "two_controlled",
    "max_dim_touched",
    "ancilla_generated",
)


def to_json(r: ResourceReport) -> str:
    return json.dumps(r.to_dict(), indent=2)


def csv_header() -> str:
    return ",".join(CSV_FIELDS)


def to_csv_row(r: ResourceReport) -> str:
    anc = "" if r.ancilla_generated is None else str(r.ancilla_generated)
    vals = (
        r.width,
        r.depth,
        int(r.depth_exact),
        r.total_gates,
        r.count_by_arity(1),
        r.count_by_arity(2),
        r.count_by_arity(3),
        r.max_dim_touched,
        anc,
    )
    return ",".join(str(v) for v in vals)
