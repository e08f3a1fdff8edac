"""Byte-identity of `radixcirc build` output.

Each sha256 pins `ir.dumps(circ, indent=2)` for one build configuration, so
a refactor that changes any wire, name or gate of these circuits fails here.
A change that alters a circuit on purpose updates the hash and says so.

Beside each hash sits the circuit's cost, (gates, depth, 2-controlled gates)
from `resources.report`, checked first: a re-pin that only reorders gates
keeps the cost, a change to the construction shows up there.  The five
n=240 rows sum to the build-flagship benchmark's 31958 / 1303 / 14092.
"""
import hashlib

import pytest

from radixcirc import cli, ir, resources

K78 = int("10" * 39, 2)
K36 = int("10" * 18, 2)
K240 = int("10" * 120, 2)

GOLDEN = [
    ("block-adder --n 30 --scheme 231 --carry-out", (932, 218, 313), "9c3f42604456f5d2f3fb8938382c2c4d6d3793241574f731c021ab0ff9d8910a"),
    ("block-adder --n 30 --scheme 241 --carry-out", (664, 167, 251), "738e3c56d7a1f916ac72796030747cc7ab5a0be198dee2f5c66cfe40c9842e12"),
    ("block-adder --n 30 --scheme 231 --carry-in", (936, 213, 312), "cdf377de55c80dac19573b7a21ca9dd983a9c8346d2caba48ceaa713c1c4727d"),
    (f"block-plus-k --n 78 --scheme 231 --carry-out --k {K78}", (1645, 528, 518), "ef9b455420e36d906532a78551259e344debd051337f0ce365c09c5be82a2617"),
    (f"block-plus-k --n 36 --scheme 241 --carry-in --carry-out --k {K36}", (569, 257, 154), "d8cbd949b4110161ffc80c2422eeb1a13ae6ac5d3241c88ab9e2ead3b2e93281"),
    ("cla-adder --n 30 --carry-in --carry-out", (423, 28, 247), "ad8cb77949e62194211bcc1534f3c74627de4e713de2f7d6252e230b623f9be2"),
    ("plus-k --n 30 --carry-out --k 123456789", (319, 27, 186), "ac61a1283d751e6d10ebf9b23e0e89041912bff17a3740cd7f3f949bd54cbfae"),
    ("ripple-adder --n 30 --carry-in --carry-out", (181, 152, 60), "27064f2579f378b610be9ac4057e61b36cb8ceb39e2e7090da6c3a7d2f056801"),
    ("compress231", (7, 7, 1), "afa54eac2ae82b528df594be36d2d5e9e75afc3271b627b1b9664c73d03a45d3"),
    ("compress241", (3, 3, 0), "05ff7bbdfe12941e03d9ed36e30097b137b08efd783291ed998c8b74b01f5210"),
    # The five n=240 build-flagship configurations.
    ("block-adder --n 240 --scheme 231 --carry-out", (9109, 301, 3736), "f8fc58874001ae794a5530c51e5d9c19e3ddc8a278c2d73b16aeff93c3a7b20f"),
    ("block-adder --n 240 --scheme 241 --carry-out", (7199, 213, 3162), "4352baaa6aa461a5dd40596995537f822738a10435f242de68f8cf1adf1ceb13"),
    (f"block-plus-k --n 240 --scheme 231 --carry-out --k {K240}", (6438, 460, 2558), "f80050565b3f3d1eff1c13bd8076ceed1f160f30d16a22cecc7194c2ce7e8526"),
    (f"block-plus-k --n 240 --scheme 241 --carry-in --carry-out --k {K240}", (5461, 289, 2318), "c2514cf0a34248a5f5962ca81864ad03e14f1e6aa10ee2785f8d4c77b73d587f"),
    ("cla-adder --n 240 --carry-out", (3751, 40, 2318), "c81a4d967f4568fe98c4cc954cd19d0ffb29f5539c7dc2c966589e876eb01bda"),
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
