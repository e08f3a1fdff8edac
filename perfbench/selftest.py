"""Fast self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload of ``BENCHMARK.json`` at the ``--tiny`` size for one
second, untraced on two seeds and traced on one, and checks that each run
exits 0, prints every named metric with its unit as the last line, and that
the circuit-cost counts do not depend on the seed.  It then runs the
benchmark in a directory that holds only ``BENCHMARK.json`` and the
benchmark's own files, where it must fail without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COST_COUNTS = ("gates", "depth", "two_controlled")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(out)}")
    if out["correct"] is not True or out["failed"] != 0 or out["attempted"] < 1:
        raise AssertionError(f"{what}: {out['attempted']} attempted, {out['failed']} failed")
    return out


def check_metrics(out: dict, specs: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if got != want:
        raise AssertionError(f"{what}: metrics {got} != {want}")
    for k, v in out["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise AssertionError(f"{what}: {k} is {v['value']!r}")


def main() -> int:
    for wl in SPEC["workloads"]:
        name = wl["name"]
        counts = []
        for seed in (1, 2):
            out = result(run(name, seed, 0), f"{name} seed {seed}")
            check_metrics(out, SPEC["end_to_end"], f"{name} seed {seed}")
            zero = [k for k, v in out["metrics"].items() if v["value"] <= 0]
            if zero:
                raise AssertionError(f"{name}: end-to-end metrics not positive: {zero}")
            counts.append({k: out["metrics"][k]["value"] for k in COST_COUNTS})
        if counts[0] != counts[1]:
            raise AssertionError(f"{name}: circuit-cost counts depend on the seed: {counts}")
        out = result(run(name, 1, 1), f"{name} traced")
        check_metrics(out, SPEC["per_layer"], f"{name} traced")
        print(f"ok {name}: {counts[0]}")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError(f"run without the program: exit {proc.returncode}\n{proc.stdout}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
