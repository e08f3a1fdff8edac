"""In-memory span tracer and the run-time wrappers that time radixcirc's layers.

Spans are recorded from the benchmark's side of each call.  For a traced
operation, ``instrument`` replaces selected module attributes of radixcirc
with timing wrappers and restores the originals afterwards; no file of the
program changes.  An attribute a later version of the program no longer has
is skipped, so its layer reads 0 instead of breaking the run.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

NO_SPAN = contextlib.nullcontext()


def no_span(name: str) -> contextlib.AbstractContextManager:
    """Stand-in for ``Tracer.span`` in untraced operations."""
    return NO_SPAN


class Tracer:
    """Spans as ``[name, start, end, parent index, operation id]``, plus counts.

    Times are ``time.perf_counter`` seconds.  Counts are kept per operation;
    ``max_digits`` holds the largest digit of every ``sim.run_batch`` call and
    ``built`` the circuits built during the current operation.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int | None, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.max_digits: list[int] = []
        self.built: list = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.op][name] += n

    def self_times(self, op: int) -> dict[str, float]:
        """Per span name, the summed self time of one operation's spans.

        A span's self time is its duration minus the durations of its direct
        children; spans of one thread never overlap their siblings.
        """
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, span_op in self.spans:
            if span_op != op:
                continue
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def to_dict(self) -> dict:
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
            "run_batch_max_digits": self.max_digits,
        }


def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out)
        return out

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, p):
    """Wrap the layer entry points that ``cli.main`` reaches, for one operation.

    ``p`` holds the radixcirc modules as ``cli``, ``bb`` (block_builder),
    ``qa`` (qubit_adders), ``ir``, ``sim`` and ``resources``.
    """
    cli, bb, qa, ir, sim, resources = p.cli, p.bb, p.qa, p.ir, p.sim, p.resources

    def built_block(circ):
        tracer.count("block_builder.build.gates", len(circ.gates))
        tracer.built.append(circ)

    def built_adder(adder):
        tracer.built.append(adder.circuit)

    def loaded(circ):
        tracer.count("ir.gates_validated", len(circ.gates))

    orig_run_batch = getattr(sim, "run_batch", None)

    def run_batch(c, states, track_max=False):
        # Always track the maximum digit, so every traced verify call is
        # checked against the scheme's intermediate-radix bound.
        with tracer.span("sim.run_batch"):
            out, max_digit = orig_run_batch(c, states, track_max=True)
        tracer.count("sim.run_batch.gate_states", len(c.gates) * len(states))
        tracer.max_digits.append(max_digit)
        return out, (max_digit if track_max else 0)

    targets = [
        (cli, "build_kind", "cli.build_kind", None),
        (cli, "expected_outputs", "cli.expected_outputs", None),
        (cli, "build_cla_adder", "qubit_adders.build_cla_adder", built_adder),
        (qa, "build_cla_adder", "qubit_adders.build_cla_adder", built_adder),
        (bb, "plan_blocks", "block_builder.plan_blocks", None),
        (bb, "build_block_adder", "block_builder.build", built_block),
        (bb, "build_block_plus_k", "block_builder.build", built_block),
        (ir, "dumps", "ir.dumps", None),
        (ir, "loads", "ir.loads", loaded),
        (ir, "depth", "ir.depth", None),
        (resources, "report", "resources.report", None),
    ]
    saved = []
    try:
        for mod, attr, name, after in targets:
            fn = getattr(mod, attr, None)
            if fn is not None:
                saved.append((mod, attr, fn))
                setattr(mod, attr, _timed(tracer, name, fn, after))
        if orig_run_batch is not None:
            saved.append((sim, "run_batch", orig_run_batch))
            sim.run_batch = run_batch
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
