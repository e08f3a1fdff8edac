"""Byte-identity of `radixcirc build` output.

Each sha256 pins `ir.dumps(circ, indent=2)` for one build configuration, so
a refactor that changes any wire, name or gate of these circuits fails here.
A change that alters a circuit on purpose updates the hash and says so.

Beside each hash sits the circuit's cost, (gates, depth, 2-controlled gates)
from `resources.report`, checked first: a re-pin that only reorders gates
keeps the cost, a change to the construction shows up there.  The five
n=240 rows sum to the build-flagship benchmark's 50478 / 2083 / 22646.
"""
import hashlib

import pytest

from radixcirc import cli, ir, resources

K78 = int("10" * 39, 2)
K36 = int("10" * 18, 2)
K240 = int("10" * 120, 2)

GOLDEN = [
    ("block-adder --n 30 --scheme 231 --carry-out", (1470, 314, 473), "aa165fb257230f6e70cbce969cd1ca006957895ee2102935760a1be0311b061c"),
    ("block-adder --n 30 --scheme 241 --carry-out", (1230, 265, 377), "f7029e93d335c1426fd7df892ff198f0841fe4c93924d4b7b4d1130348051484"),
    ("block-adder --n 30 --scheme 231 --carry-in", (1474, 314, 474), "4c6a4017d576d5aeb9f237495a013d21c9cebf2440ca46f3dc63d34c9a9eb935"),
    (f"block-plus-k --n 78 --scheme 231 --carry-out --k {K78}", (2739, 824, 830), "2600bc6a79a98a396fb29bd6113fce2ed37daf4069f42613cffdfb1518651ac2"),
    (f"block-plus-k --n 36 --scheme 241 --carry-in --carry-out --k {K36}", (939, 375, 218), "bb656878b22b13130413a73fd40165d0fb042b3f77d0bcef63bb2c4101cc1448"),
    ("cla-adder --n 30 --carry-in --carry-out", (423, 28, 247), "43597ed249657a43ffe6d0417528fd5b468195f73f1b5eba9eba3d31c396de13"),
    ("plus-k --n 30 --carry-out --k 123456789", (353, 28, 186), "b484cd609c50aadfe2e3ea523dcc0671a2ef68202346e82a2c65c413702cad91"),
    ("ripple-adder --n 30 --carry-in --carry-out", (181, 152, 60), "27064f2579f378b610be9ac4057e61b36cb8ceb39e2e7090da6c3a7d2f056801"),
    ("compress231", (7, 7, 1), "afa54eac2ae82b528df594be36d2d5e9e75afc3271b627b1b9664c73d03a45d3"),
    ("compress241", (3, 3, 0), "05ff7bbdfe12941e03d9ed36e30097b137b08efd783291ed998c8b74b01f5210"),
    # The five n=240 build-flagship configurations.
    ("block-adder --n 240 --scheme 231 --carry-out", (14523, 474, 6218), "53c04a003d137b877734c9f62ffce17f6640a2ff0d0c8beaa5f2ebb1281516bd"),
    ("block-adder --n 240 --scheme 241 --carry-out", (12153, 341, 5350), "e9b3659a03a27650fb0ce5ea341379b644d759ec4bd37dfab29f9268ab7af825"),
    (f"block-plus-k --n 240 --scheme 231 --carry-out --k {K240}", (10566, 719, 4522), "43d97e6874c9e31895a577ac9cbbc580201df048dadf6e20b1da4e65f8772979"),
    (f"block-plus-k --n 240 --scheme 241 --carry-in --carry-out --k {K240}", (9483, 509, 4238), "a6214fbcba27f56e9619475588dc501c7fd66df26772d561164983e96085633d"),
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
