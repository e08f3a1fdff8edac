"""Byte-identity of `radixcirc build` output.

Each sha256 pins `ir.dumps(circ, indent=2)` for one build configuration, so
a refactor that changes any wire, name or gate of these circuits fails here.
A change that alters a circuit on purpose updates the hash and says so.

Beside each hash sits the circuit's cost, (gates, depth, 2-controlled gates)
from `resources.report`, checked first: a re-pin that only reorders gates
keeps the cost, a change to the construction shows up there.  The five
n=240 rows sum to the build-flagship benchmark's 39100 / 1485 / 16932.
"""
import hashlib

import pytest

from radixcirc import cli, ir, resources

K78 = int("10" * 39, 2)
K36 = int("10" * 18, 2)
K240 = int("10" * 120, 2)

GOLDEN = [
    ("block-adder --n 30 --scheme 231 --carry-out", (1218, 238, 379), "c9afa42808788850103d6cc0000e514498ba48fc85085612b4d5e6de2208e8b2"),
    ("block-adder --n 30 --scheme 241 --carry-out", (978, 189, 283), "4364b28da100a9a268f1bc093799c4dd284077a662acc0835d6eec9281d897c9"),
    ("block-adder --n 30 --scheme 231 --carry-in", (1218, 238, 378), "c7f55413f959ec1681f4c1e2f132d1870667d34ed50d78bb8158d508d13c7a65"),
    (f"block-plus-k --n 78 --scheme 231 --carry-out --k {K78}", (2191, 596, 664), "277968d91731c6e4e116faca0e21c936f55b7608a5ab6d82e666c25f751f480e"),
    (f"block-plus-k --n 36 --scheme 241 --carry-in --carry-out --k {K36}", (763, 290, 186), "323be744400b1e7f27da6a84ac6eafc32c4315dba2890866e67c4c27df6119cf"),
    ("cla-adder --n 30 --carry-in --carry-out", (423, 28, 247), "43597ed249657a43ffe6d0417528fd5b468195f73f1b5eba9eba3d31c396de13"),
    ("plus-k --n 30 --carry-out --k 123456789", (353, 28, 186), "b484cd609c50aadfe2e3ea523dcc0671a2ef68202346e82a2c65c413702cad91"),
    ("ripple-adder --n 30 --carry-in --carry-out", (181, 152, 60), "27064f2579f378b610be9ac4057e61b36cb8ceb39e2e7090da6c3a7d2f056801"),
    ("compress231", (7, 7, 1), "afa54eac2ae82b528df594be36d2d5e9e75afc3271b627b1b9664c73d03a45d3"),
    ("compress241", (3, 3, 0), "05ff7bbdfe12941e03d9ed36e30097b137b08efd783291ed998c8b74b01f5210"),
    # The five n=240 build-flagship configurations.
    ("block-adder --n 240 --scheme 231 --carry-out", (11415, 348, 4612), "fb3b640cbbe3b69530312dea778f1c9d06bd035e71a7bb51e02ad461adb17cea"),
    ("block-adder --n 240 --scheme 241 --carry-out", (9163, 239, 3774), "d6e90a0cc33ca7c65139e82a906a740e61b8dffc612d435ddb434872961e8f0b"),
    (f"block-plus-k --n 240 --scheme 231 --carry-out --k {K240}", (7896, 509, 3250), "adeb07bde11e26eb0adf7447e36ae5ec50d28cdfbe65be3d6796c21b1e6cf2a5"),
    (f"block-plus-k --n 240 --scheme 241 --carry-in --carry-out --k {K240}", (6873, 349, 2978), "3621fdf4a1122d8247686236630d0b26b0c787542e7765b71c47de1cf8fddb61"),
    ("cla-adder --n 240 --carry-out", (3753, 40, 2318), "830585f074c687929c22d722ebc085d570674dc672a152b9de0ba1ad463caecf"),
]


@pytest.mark.parametrize("flags,cost,digest", GOLDEN, ids=[f.split(" --k")[0] for f, *_ in GOLDEN])
def test_build_output_is_byte_identical(flags, cost, digest):
    args = cli.make_parser().parse_args(["build", "--kind", *flags.split()])
    circ, _ = cli.build_kind(args)
    r = resources.report(circ)
    assert (r.total_gates, r.depth, r.count_by_arity(3)) == cost
    text = ir.dumps(circ, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
