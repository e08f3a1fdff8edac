"""Benchmark of the radixcirc toolkit: three workloads, one closed-loop client each.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload build-flagship --seed 1 --seconds 10 --trace 0

Workloads.  Configurations and the +K constant (an alternating bit pattern)
are fixed by the workload; ``--seed`` draws operands and samples only, so the
circuit-cost counts never depend on it.

* ``build-flagship``: one operation is ``radixcirc build --out`` followed by
  ``radixcirc stats``, both through ``cli.main``, for five n=240 circuits
  with carry-out: block-adder 2-3-1 and 2-4-1, block-plus-k 2-3-1 and 2-4-1
  (the 2-4-1 one also with carry-in), and cla-adder.  ``ir``,
  ``block_builder``, ``qubit_adders`` and ``resources`` do the work and
  nothing is simulated.
* ``verify-batch``: one operation is two ``radixcirc verify`` calls through
  ``cli.main``: block-adder 2-3-1 n=60 with carry-out and block-plus-k 2-4-1
  n=60 with carry-in and carry-out, each with one large ``--samples`` batch.
  ``sim.run_batch`` and the ``cli.expected_outputs`` oracle do the work.
* ``simulate-scalar``: the README quick tour.  One operation is
  ``encode_input``, ``sim.basis_state``, ``sim.run`` and ``decode_output``
  on random operands, once on 2-3-1 A+B n=60 and once on 2-4-1 +K n=60.
  Pairing the two circuits in one operation keeps the latency distribution
  single-moded, so its median is stable.

Every operation's output is checked; a failed check counts toward
``error_rate`` and makes the command exit 1 after printing the result.
Set-up builds the workload's circuits with the library directly; it is
repeated and its median reported as ``setup_s``.  The first operation warms
up: it is checked but not timed.

End-to-end metrics (``--trace 0``), gated by ``BENCHMARK.json``:
``setup_s``; ``op_p10_ref``, the 10th percentile of operation latency
divided by that of a fixed pure-Python reference loop timed between the
operations; ``peak_rss_mb`` of this process; and the circuits' exact
``gates``, ``depth`` and ``two_controlled`` counts, summed over the
workload's circuits.  Printed but not gated: ``op_p10_ms``, ``op_p50_ms``;
``op_tail_ms``, the highest percentile with at least 10 operations beyond
it (the median when there are fewer than 21 operations); ``work_per_s``
(gates built, samples verified or simulations run per second); and
``error_rate``.  Raw times are not gated because the shared machine has
slow phases of minutes in which everything runs up to twice as long.

The traced run (``--trace 1``) alternates untraced and traced operations.
It reports, as medians over the traced operations, each layer's self time
per operation, counts made at layer boundaries and the time under
``cli.main`` that no layer span covers; and the tracing overhead (median
traced minus median untraced operation).
It writes its spans to ``.perfbench/trace-<workload>-seed<seed>.json``.
Which layer should move which end-to-end metric:

* ``op_p10_ref`` on build-flagship: ``ir.loads``, ``ir.dumps``, ``ir.depth``,
  ``ir.extend`` (a replay of each built gate list into a fresh circuit, run
  only when traced, that isolates per-gate validation), ``block_builder``
  planning and building, ``qubit_adders.build_cla_adder`` and
  ``resources.report``;
* ``op_p10_ref`` on verify-batch: ``sim.run_batch``,
  ``cli.expected_outputs`` and ``cli.build_kind``;
* ``op_p10_ref`` on simulate-scalar: ``sim.run``,
  ``sim.basis_state``, ``encode_input`` and ``decode_output``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--tiny`` shrinks
every size for the self-test (``perfbench/selftest.py``).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "op_p10_ref": "ratio",
    "peak_rss_mb": "MB",
    "gates": "count",
    "depth": "count",
    "two_controlled": "count",
}

# Per-layer time metrics are the self time of the span of the same name.
LAYER_TIMES = {
    "ir.loads.s": "ir.loads",
    "ir.dumps.s": "ir.dumps",
    "ir.depth.s": "ir.depth",
    "ir.extend.s": "ir.extend",
    "block_builder.plan_blocks.s": "block_builder.plan_blocks",
    "block_builder.build.s": "block_builder.build",
    "qubit_adders.build_cla_adder.s": "qubit_adders.build_cla_adder",
    "resources.report.s": "resources.report",
    "sim.run_batch.s": "sim.run_batch",
    "cli.expected_outputs.s": "cli.expected_outputs",
    "cli.build_kind.s": "cli.build_kind",
    "sim.run.s": "sim.run",
    "sim.basis_state.s": "sim.basis_state",
    "block_builder.encode_input.s": "block_builder.encode_input",
    "block_builder.decode_output.s": "block_builder.decode_output",
    "cli.main.uncovered.s": "cli.main",
}
LAYER_COUNTS = ("ir.gates_validated", "block_builder.build.gates", "sim.run_batch.gate_states", "sim.run.gates")
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "ir.loads.bounds_lost": "count",
    "sim.run_batch.max_digit": "digit",
    "trace.overhead.s": "s",
}


def import_program() -> SimpleNamespace:
    """Import radixcirc from the checkout's ``src/``; exit 2 when it is absent."""
    if not (SRC / "radixcirc" / "__init__.py").is_file():
        print(f"error: {SRC / 'radixcirc'} not found; run from the root of a radixcirc checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy
    import radixcirc
    from radixcirc import block_builder, cli, compress, ir, qubit_adders, resources, sim

    return SimpleNamespace(numpy=numpy, version=radixcirc.__version__, bb=block_builder, cli=cli,
                           compress=compress, ir=ir, qa=qubit_adders, resources=resources, sim=sim)


def alternating_bits(n: int) -> int:
    """The fixed +K constant: binary 1010...10 over n bits."""
    return int("10" * (n // 2) + "1" * (n % 2), 2)


def cost_counts(reports) -> dict[str, int]:
    return {
        "gates": sum(r.total_gates for r in reports),
        "depth": sum(r.depth for r in reports),
        "two_controlled": sum(r.count_by_arity(3) for r in reports),
    }


class Workload:
    """One closed-loop client.  Subclasses define set-up and one operation."""

    setup_repeats = 7
    work_unit = ""
    # (name the workload definition uses, printed figure it stands for, scale, unit)
    aliases: tuple[tuple[str, str, float, str], ...] = ()

    def __init__(self, p: SimpleNamespace, seed: int, tiny: bool):
        self.p = p
        self.rng = random.Random(seed)
        self.reports = []
        self.bounds_lost = 0

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, tracer: tracing.Tracer | None) -> tuple[float, list[str]]:
        """Run one operation; return its wall time and its failed checks."""
        raise NotImplementedError

    def work_per_op(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def call_main(self, argv: list[str], tracer: tracing.Tracer | None) -> tuple[int, str]:
        """``cli.main(argv)`` with standard output captured."""
        span = tracer.span if tracer else tracing.no_span
        with contextlib.redirect_stdout(io.StringIO()) as out, span("cli.main"):
            rc = self.p.cli.main(argv)
        return rc, out.getvalue()

    def instrumented(self, tracer: tracing.Tracer | None):
        return tracing.NO_SPAN if tracer is None else tracing.instrument(tracer, self.p)


class BuildFlagship(Workload):
    name = "build-flagship"
    setup_repeats = 3
    work_unit = "gates built"
    aliases = (("build_s", "op_p50_ms", 1e-3, "s"),)

    def __init__(self, p, seed, tiny):
        super().__init__(p, seed, tiny)
        n = 78 if tiny else 240
        k = str(alternating_bits(n))
        base = ["--n", str(n), "--carry-out"]
        self.flags = [
            ["--kind", "block-adder", "--scheme", "231", *base],
            ["--kind", "block-adder", "--scheme", "241", *base],
            ["--kind", "block-plus-k", "--scheme", "231", *base, "--k", k],
            ["--kind", "block-plus-k", "--scheme", "241", *base, "--carry-in", "--k", k],
            ["--kind", "cla-adder", *base],
        ]
        self.labels = [" ".join(f[1:]).replace(f" --k {k}", " --k 1010...") for f in self.flags]
        self.work: Path | None = None
        self.circuits = []
        self.ref_bytes: list[bytes | None] = [None] * len(self.flags)

    def setup(self):
        parser = self.p.cli.make_parser()
        self.circuits, self.reports = [], []
        for flags in self.flags:
            circ, _ = self.p.cli.build_kind(parser.parse_args(["build", *flags]))
            self.circuits.append(circ)
            self.reports.append(self.p.resources.report(circ))
        if self.work is None:
            OUT_DIR.mkdir(exist_ok=True)
            self.work = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT_DIR))
        self.expected_stats = [json.loads(self.p.resources.to_json(r)) for r in self.reports]

    def op(self, tracer):
        results = []
        with self.instrumented(tracer):
            t0 = time.perf_counter()
            for j, flags in enumerate(self.flags):
                path = self.work / f"circuit{j}.json"
                build = self.call_main(["build", *flags, "--out", str(path)], tracer)
                stats = self.call_main(["stats", str(path)], tracer)
                results.append((path, build, stats))
            elapsed = time.perf_counter() - t0
        errors = []
        for j, (path, (rc_build, _), (rc_stats, stats_text)) in enumerate(results):
            label = self.labels[j]
            if rc_build or rc_stats:
                errors.append(f"{label}: build exited {rc_build}, stats exited {rc_stats}")
                continue
            data = path.read_bytes()
            if self.ref_bytes[j] is None:
                errors += self.check_round_trip(j, data)
            elif data != self.ref_bytes[j]:
                errors.append(f"{label}: build output differs from the first build of this run")
            stats = json.loads(stats_text)
            stats.pop("ancilla_generated", None)
            if stats != self.expected_stats[j]:
                errors.append(f"{label}: stats {stats} != report of the built circuit {self.expected_stats[j]}")
        return elapsed, errors

    def check_round_trip(self, j: int, data: bytes) -> list[str]:
        """``ir.loads`` of the written file gives back the built wires and gates.

        The first build's bytes then stand for that check in later operations,
        and the built circuit is released, so that later operations run with
        a heap like that of a ``radixcirc`` process.  Lost ``input_bounds``
        are counted, not failed: a known defect.
        """
        built = self.circuits[j]
        loaded = self.p.ir.loads(data.decode())
        if loaded.wires != built.wires or loaded.gates != built.gates:
            return [f"{self.labels[j]}: ir.loads of the written circuit differs from the built circuit"]
        self.bounds_lost += sum(a != b for a, b in zip(loaded.input_bounds, built.input_bounds))
        self.ref_bytes[j] = data
        self.circuits[j] = None
        return []

    def work_per_op(self):
        return sum(r.total_gates for r in self.reports)

    def close(self):
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)


class VerifyBatch(Workload):
    name = "verify-batch"
    work_unit = "samples verified"
    aliases = (("verify_samples_per_s", "work_per_s", 1, "1/s"),)

    def __init__(self, p, seed, tiny):
        super().__init__(p, seed, tiny)
        n = 36 if tiny else 60
        self.samples = 300 if tiny else 10000
        base = ["--n", str(n), "--carry-out"]
        # (flags, largest digit the scheme may reach: 2 for 2-3-1, 3 for 2-4-1)
        self.cases = [
            (["--kind", "block-adder", "--scheme", "231", *base], 2),
            (["--kind", "block-plus-k", "--scheme", "241", *base, "--carry-in", "--k", str(alternating_bits(n))], 3),
        ]

    def setup(self):
        parser = self.p.cli.make_parser()
        self.reports = []
        for flags, _ in self.cases:
            circ, _ = self.p.cli.build_kind(parser.parse_args(["build", *flags]))
            self.reports.append(self.p.resources.report(circ))

    def op(self, tracer):
        seeds = [self.rng.randrange(1 << 31) for _ in self.cases]
        results = []
        with self.instrumented(tracer):
            t0 = time.perf_counter()
            for (flags, _), seed in zip(self.cases, seeds):
                first = len(tracer.max_digits) if tracer else 0
                argv = ["verify", *flags, "--samples", str(self.samples), "--seed", str(seed)]
                rc, out = self.call_main(argv, tracer)
                results.append((rc, out, tracer.max_digits[first:] if tracer else None))
            elapsed = time.perf_counter() - t0
        errors = []
        for (flags, bound), seed, (rc, out, digits) in zip(self.cases, seeds, results):
            label = f"verify {' '.join(flags[1:4])} --seed {seed}"
            if rc != 0 or f"PASS {flags[1]}: {self.samples} cases" not in out:
                errors.append(f"{label}: exited {rc}: {out.strip()}")
            if digits is not None and (not digits or max(digits) != bound):
                errors.append(f"{label}: run_batch max digit {digits}, expected exactly {bound}")
        return elapsed, errors

    def work_per_op(self):
        return self.samples * len(self.cases)


class SimulateScalar(Workload):
    name = "simulate-scalar"
    work_unit = "simulations"
    aliases = (("simulate_p50_ms", "op_p50_ms", 1, "ms"), ("simulate_tail_ms", "op_tail_ms", 1, "ms"))

    def __init__(self, p, seed, tiny):
        super().__init__(p, seed, tiny)
        self.n = 36 if tiny else 60
        self.k = alternating_bits(self.n)

    def setup(self):
        bb, cmp, n = self.p.bb, self.p.compress, self.n
        plan_ab = bb.plan_blocks(bb.MODE_AB, cmp.SCHEME_231, n)
        plan_k = bb.plan_blocks(bb.MODE_PLUS_K, cmp.SCHEME_241, n)
        self.cases = [
            (plan_ab, bb.build_block_adder(plan_ab, carry_out=True)),
            (plan_k, bb.build_block_plus_k(plan_k, self.k, carry_out=True)),
        ]
        self.reports = [self.p.resources.report(circ) for _, circ in self.cases]

    def op(self, tracer):
        bb, sim, n = self.p.bb, self.p.sim, self.n
        span = tracer.span if tracer else tracing.no_span
        operands = [(self.rng.getrandbits(n), self.rng.getrandbits(n)) for _ in self.cases]
        results = []
        t0 = time.perf_counter()
        for (plan, circ), (a, b) in zip(self.cases, operands):
            a_in = a if plan.mode == bb.MODE_AB else None
            with span("block_builder.encode_input"):
                digits = bb.encode_input(plan, b_value=b, a_value=a_in, carry_out=True)
            with span("sim.basis_state"):
                state = sim.basis_state(circ, digits)
            with span("sim.run"):
                out = sim.run(circ, state)
            with span("block_builder.decode_output"):
                results.append(bb.decode_output(plan, out.digits, carry_out=True))
        elapsed = time.perf_counter() - t0
        errors = []
        for (plan, circ), (a, b), (a_out, total, cout) in zip(self.cases, operands, results):
            if tracer:
                tracer.count("sim.run.gates", len(circ.gates))
            if plan.mode == bb.MODE_AB:
                addend, a_ok = a, a_out == a
            else:
                addend, a_ok = self.k, a_out is None
            if not a_ok or total + (cout << n) != addend + b:
                errors.append(f"{plan.mode} {plan.scheme.label} n={n}: a={a} b={b} gave a'={a_out} sum={total} cout={cout}")
        return elapsed, errors

    def work_per_op(self):
        return len(self.cases)


WORKLOADS = {w.name: w for w in (BuildFlagship, VerifyBatch, SimulateScalar)}


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it, and its label.

    Below 21 samples that percentile is at or under the median, so the
    median is reported instead.
    """
    s = sorted(times)
    n = len(s)
    if n < 21:
        return statistics.median(s), f"p50 of {n} ops: fewer than 21, so no higher percentile has 10 beyond"
    return s[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} ops, 10 beyond"


REF_SHARE = 0.05


def reference_unit() -> float:
    """Time the yardstick of machine speed: a fixed pure-Python loop.

    About 2 ms on a 2-core Xeon VM; it calls nothing of radixcirc.  Slow
    phases of a shared machine stretch it and the operations alike, so
    their ratio holds still where raw times do not.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i
    return time.perf_counter() - t0


def measure(w: Workload, seconds: float, trace: bool):
    """Closed loop for ``seconds``; with ``trace``, every other operation is traced.

    Operation 0 warms up: it is checked and counted but not timed.  After
    each untraced operation the reference loop runs for ``REF_SHARE`` of the
    operation's time, so both are sampled under the same machine load.
    """
    tracer = tracing.Tracer() if trace else None
    plain, traced, traced_ops, ref = [], [], [], []
    attempted = failed = 0
    deadline = None
    budget = 0.0
    while True:
        use = tracer if trace and attempted % 2 == 0 and attempted else None
        if use:
            use.op = attempted
        elapsed, errors = w.op(use)
        if use:
            replay_built(w.p.ir, use)
            use.op = None
            traced.append(elapsed)
            traced_ops.append(attempted)
        elif attempted:
            plain.append(elapsed)
            budget += REF_SHARE * elapsed
            while budget > 0:
                ref.append(reference_unit())
                budget -= ref[-1]
        else:
            deadline = time.perf_counter() + seconds
        attempted += 1
        failed += bool(errors)
        for e in errors:
            print(f"FAIL {w.name}: {e}")
        if time.perf_counter() >= deadline and plain and (traced or not trace):
            return tracer, plain, traced, traced_ops, ref, attempted, failed


def replay_built(ir, tracer: tracing.Tracer) -> None:
    """Replay each circuit built in the operation into a fresh circuit.

    This isolates the per-gate validation cost of ``ir.extend``; it runs
    after the operation's timed region.
    """
    for circ in tracer.built:
        fresh = ir.new_circuit(circ.wires, circ.input_bounds)
        with tracer.span("ir.extend"):
            ir.extend(fresh, circ.gates)
        tracer.count("ir.gates_validated", len(circ.gates))
    tracer.built = []


def p10(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[0] if len(xs) > 1 else xs[0]


def end_to_end_metrics(w: Workload, setup_s: float, times: list[float], ref: list[float]) -> tuple[dict, list[str]]:
    """The gated end-to-end metrics, and report lines that add the ungated figures.

    Raw latencies and throughput are printed but not gated: on a shared
    2-core machine they moved by up to a half between sets of runs, more
    than any bound the benchmark may set.  The 10th percentile ignores
    short bursts of load, and dividing by the reference loop's 10th
    percentile cancels the slow phases that stretch both alike.
    """
    values = {
        "setup_s": setup_s,
        "op_p10_ref": p10(times) / p10(ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **cost_counts(w.reports),
    }
    tail_s, tail_label = tail(times)
    ungated = {
        "op_p10_ms": (1e3 * p10(times), "ms", f"10th percentile of {len(times)} ops"),
        "ref_p10_ms": (1e3 * p10(ref), "ms", f"10th percentile of {len(ref)} reference loops"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms", f"median of {len(times)} ops"),
        "op_tail_ms": (1e3 * tail_s, "ms", tail_label),
        "work_per_s": (w.work_per_op() * len(times) / sum(times), "1/s", w.work_unit),
    }
    notes = {"setup_s": f"median of {w.setup_repeats} set-ups", "op_p10_ref": "op_p10_ms / ref_p10_ms"}
    lines = [f"{k:<20} {v:>14.6g} {END_TO_END[k]:<6} {notes.get(k, '')}" for k, v in values.items()]
    lines += [f"{k:<20} {v:>14.6g} {u:<6} {note} (not gated)" for k, (v, u, note) in ungated.items()]
    lines += [f"{alias:<20} {ungated[k][0] * scale:>14.6g} {unit:<6} = {k}" for alias, k, scale, unit in w.aliases]
    return values, lines


def per_layer_metrics(w: Workload, tracer: tracing.Tracer, plain, traced, traced_ops) -> dict:
    per_op = [tracer.self_times(op) for op in traced_ops]
    values = {name: statistics.median(t.get(span, 0.0) for t in per_op) for name, span in LAYER_TIMES.items()}
    for name in LAYER_COUNTS:
        values[name] = statistics.median(tracer.counts[op][name] for op in traced_ops)
    values["ir.loads.bounds_lost"] = w.bounds_lost
    values["sim.run_batch.max_digit"] = max(tracer.max_digits, default=0)
    values["trace.overhead.s"] = statistics.median(traced) - statistics.median(plain)
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="radixcirc benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every size, for the self-test")
    args = ap.parse_args(argv)

    # One process, no extra threads: keep any numpy backend single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    p = import_program()

    print(f"radixcirc benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          + (" tiny" if args.tiny else ""))
    print(f"env: cores={os.cpu_count()} usable={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={p.numpy.__version__} radixcirc={p.version} machine={platform.machine()}")

    w = WORKLOADS[args.workload](p, args.seed, args.tiny)
    try:
        setups = []
        for _ in range(w.setup_repeats):
            t0 = time.perf_counter()
            w.setup()
            setups.append(time.perf_counter() - t0)
        tracer, plain, traced, traced_ops, ref, attempted, failed = measure(w, args.seconds, bool(args.trace))
    finally:
        w.close()

    if args.trace:
        metrics = per_layer_metrics(w, tracer, plain, traced, traced_ops)
        units = PER_LAYER
        lines = [f"{k:<32} {v:>14.6g} {units[k]}" for k, v in metrics.items()]
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **tracer.to_dict()}))
        lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end_metrics(w, statistics.median(setups), plain, ref)
        units = END_TO_END
    print("\n".join(lines))
    if w.bounds_lost:
        print(f"known defect: ir.loads lost input_bounds on {w.bounds_lost} wires (counted, not failed)")
    print(f"error_rate       {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
