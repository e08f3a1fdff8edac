"""Byte-identity of `radixcirc build` output.

Each sha256 pins `ir.dumps(circ, indent=2)` for one build configuration, so
a refactor that changes any wire, name or gate of these circuits fails here.
A change that alters a circuit on purpose updates the hash and says so.

Beside each hash sits the circuit's cost, (gates, depth, 2-controlled gates)
from `resources.report`, checked first: a re-pin that only reorders gates
keeps the cost, a change to the construction shows up there.  The five
n=240 rows sum to the build-flagship benchmark's 32052 / 1330 / 14100.
"""
import hashlib

import pytest

from radixcirc import cli, ir, resources

K78 = int("10" * 39, 2)
K36 = int("10" * 18, 2)
K240 = int("10" * 120, 2)

GOLDEN = [
    ("block-adder --n 30 --scheme 231 --carry-out", (976, 222, 319), "98fd30fb2b9c04d07509091cc646448b78a07647cc1423f92916903007bc2bd8"),
    ("block-adder --n 30 --scheme 241 --carry-out", (684, 173, 251), "24f26334455e6f8a0636b01ce9dc5ae9aa2e8c256b01cd246a2c66a317b963df"),
    ("block-adder --n 30 --scheme 231 --carry-in", (980, 222, 318), "a40fcfc0cd97a29b642a745b646f3b935272d5b423bada441b2fe7591adf7b88"),
    (f"block-plus-k --n 78 --scheme 231 --carry-out --k {K78}", (1691, 538, 524), "62eade3f713b31ddef1d226cb723d03f20468d679e39bbc9d03b6eed00675e98"),
    (f"block-plus-k --n 36 --scheme 241 --carry-in --carry-out --k {K36}", (589, 257, 154), "a2f5c91eb11c6b147a747e728b3663c49af61290ed2ae755527ec4328da23874"),
    ("cla-adder --n 30 --carry-in --carry-out", (423, 28, 247), "43597ed249657a43ffe6d0417528fd5b468195f73f1b5eba9eba3d31c396de13"),
    ("plus-k --n 30 --carry-out --k 123456789", (319, 27, 186), "ac61a1283d751e6d10ebf9b23e0e89041912bff17a3740cd7f3f949bd54cbfae"),
    ("ripple-adder --n 30 --carry-in --carry-out", (181, 152, 60), "27064f2579f378b610be9ac4057e61b36cb8ceb39e2e7090da6c3a7d2f056801"),
    ("compress231", (7, 7, 1), "afa54eac2ae82b528df594be36d2d5e9e75afc3271b627b1b9664c73d03a45d3"),
    ("compress241", (3, 3, 0), "05ff7bbdfe12941e03d9ed36e30097b137b08efd783291ed998c8b74b01f5210"),
    # The five n=240 build-flagship configurations.
    ("block-adder --n 240 --scheme 231 --carry-out", (9153, 308, 3742), "5139a1504d9a42575c69d5f4132a632c85dbd63a07153e1d0abace3780e6804f"),
    ("block-adder --n 240 --scheme 241 --carry-out", (7219, 218, 3162), "1815aa249af7608c8e9ecd16e1bde785a08881f833cbc23d415feb4a795535d6"),
    (f"block-plus-k --n 240 --scheme 231 --carry-out --k {K240}", (6458, 466, 2560), "f923bc958ee99eecf7910e3d290908dcf4bc749e013f0f97baac2cf2464aebad"),
    (f"block-plus-k --n 240 --scheme 241 --carry-in --carry-out --k {K240}", (5471, 298, 2318), "c243629c2426824d2968f494d6178ae1aa6edce7588cc771577b1cf8d6d38ac7"),
    ("cla-adder --n 240 --carry-out", (3751, 40, 2318), "c2bc04fc64bb990bb36773f7da6ab23454a4d94e53349538fdc15f4fc9606297"),
]


@pytest.mark.parametrize("flags,cost,digest", GOLDEN, ids=[f.split(" --k")[0] for f, *_ in GOLDEN])
def test_build_output_is_byte_identical(flags, cost, digest):
    args = cli.make_parser().parse_args(["build", "--kind", *flags.split()])
    circ, _ = cli.build_kind(args)
    r = resources.report(circ)
    assert (r.total_gates, r.depth, r.count_by_arity(3)) == cost
    assert ir.cancel_inverses(circ.gates, circ.dims) == circ.gates
    text = ir.dumps(circ, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
