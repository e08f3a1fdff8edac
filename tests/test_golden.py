"""Byte-identity of `radixcirc build` output.

Each first sha256 pins `ir.dumps(circ)`, the format-1 text, for one build
configuration, so a refactor that changes any wire, name or gate of these
circuits fails here.  A change that alters a circuit on purpose updates the
hash and says so.  The second pins the format-0 text earlier versions wrote
for the same circuit, `json.dumps(oracle.circuit_to_dict(circ), indent=2)`,
and `ir.loads` of that text must give the circuit back: the format-0 reader
is tested on those exact bytes.

Beside each hash sits the circuit's cost, (gates, depth, 2-controlled gates)
from `resources.report`, checked first: a re-pin that only reorders gates
keeps the cost, a change to the construction shows up there.  The five
n=240 rows sum to the build-flagship benchmark's 31958 / 1303 / 14092.
"""
import hashlib
import json

import pytest

from radixcirc import cli, ir, resources

import oracle

K78 = int("10" * 39, 2)
K36 = int("10" * 18, 2)
K240 = int("10" * 120, 2)

GOLDEN = [
    ("block-adder --n 30 --scheme 231 --carry-out", (932, 218, 313),
     "9f45ffeb42e0115e2c4f1386b943b9ddcec54cf079bc3e87105094a966f36dc8",
     "9c3f42604456f5d2f3fb8938382c2c4d6d3793241574f731c021ab0ff9d8910a"),
    ("block-adder --n 30 --scheme 241 --carry-out", (664, 167, 251),
     "ac0d91ec34a78dfb729023f63bdd0c87420db24d937a969bf6214698079eec8b",
     "738e3c56d7a1f916ac72796030747cc7ab5a0be198dee2f5c66cfe40c9842e12"),
    ("block-adder --n 30 --scheme 231 --carry-in", (936, 213, 312),
     "c7cca1f7f5ae422f0c60760ce2b073e14e4168de1bbcc8a71a6f930e00fc649f",
     "cdf377de55c80dac19573b7a21ca9dd983a9c8346d2caba48ceaa713c1c4727d"),
    (f"block-plus-k --n 78 --scheme 231 --carry-out --k {K78}", (1645, 528, 518),
     "9e10707941d64a179967872b50ddb5b2be3c665349d08e099529c44f7c2f2881",
     "ef9b455420e36d906532a78551259e344debd051337f0ce365c09c5be82a2617"),
    (f"block-plus-k --n 36 --scheme 241 --carry-in --carry-out --k {K36}", (569, 257, 154),
     "e58f8d1f08f6130cdd2b040f6a82115f56ac852734856272b776417af982afd7",
     "d8cbd949b4110161ffc80c2422eeb1a13ae6ac5d3241c88ab9e2ead3b2e93281"),
    ("cla-adder --n 30 --carry-in --carry-out", (423, 28, 247),
     "212d6af3de012453b759850d9272ed348e5ad22efec815471d49c011b40ce1e9",
     "ad8cb77949e62194211bcc1534f3c74627de4e713de2f7d6252e230b623f9be2"),
    ("plus-k --n 30 --carry-out --k 123456789", (319, 27, 186),
     "b270affb419332ed6ed8921e0462e7b0038c8de0e96e1cc71a7617a871acdffa",
     "ac61a1283d751e6d10ebf9b23e0e89041912bff17a3740cd7f3f949bd54cbfae"),
    ("ripple-adder --n 30 --carry-in --carry-out", (181, 152, 60),
     "e280905a880b7c57776ec49aec21588e91c5743c929466d79843c9dad4fe3c3b",
     "27064f2579f378b610be9ac4057e61b36cb8ceb39e2e7090da6c3a7d2f056801"),
    ("compress231", (7, 7, 1),
     "d2f3f905882a100979080156e82f14867329377a4ffc6dbd678e54668f538162",
     "afa54eac2ae82b528df594be36d2d5e9e75afc3271b627b1b9664c73d03a45d3"),
    ("compress241", (3, 3, 0),
     "995930b79a9681dbeaf484a6a59d63b65c59d6ab682b6941f5c37dcece630390",
     "05ff7bbdfe12941e03d9ed36e30097b137b08efd783291ed998c8b74b01f5210"),
    # The five n=240 build-flagship configurations.
    ("block-adder --n 240 --scheme 231 --carry-out", (9109, 301, 3736),
     "504e15d806ca1e7dbe2453300f96ae26dd04a1739a20bc632e6f3d7a9d4950f2",
     "f8fc58874001ae794a5530c51e5d9c19e3ddc8a278c2d73b16aeff93c3a7b20f"),
    ("block-adder --n 240 --scheme 241 --carry-out", (7199, 213, 3162),
     "81f8fa733528706e811c3542611ba2400187b5756bf6c2e85492bc72f6a3a169",
     "4352baaa6aa461a5dd40596995537f822738a10435f242de68f8cf1adf1ceb13"),
    (f"block-plus-k --n 240 --scheme 231 --carry-out --k {K240}", (6438, 460, 2558),
     "fe9cea9fe45a01ab26727338bc522ba6d0c88e4936cc022a7f5f54fbf65c65c9",
     "f80050565b3f3d1eff1c13bd8076ceed1f160f30d16a22cecc7194c2ce7e8526"),
    (f"block-plus-k --n 240 --scheme 241 --carry-in --carry-out --k {K240}", (5461, 289, 2318),
     "390d85e68cc19cb9584b4b70be73b3b1ec2331f1c218fd0fcc8d095d8d58ae6c",
     "c2514cf0a34248a5f5962ca81864ad03e14f1e6aa10ee2785f8d4c77b73d587f"),
    ("cla-adder --n 240 --carry-out", (3751, 40, 2318),
     "fdfa9672e2dd1d1267b73452ab38d54ee92605c24fadd33890724388f9840f00",
     "c81a4d967f4568fe98c4cc954cd19d0ffb29f5539c7dc2c966589e876eb01bda"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("flags,cost,digest,digest_v0", GOLDEN, ids=[f.split(" --k")[0] for f, *_ in GOLDEN])
def test_build_output_is_byte_identical(flags, cost, digest, digest_v0):
    args = cli.make_parser().parse_args(["build", "--kind", *flags.split()])
    circ, _ = cli.build_kind(args)
    r = resources.report(circ)
    assert (r.total_gates, r.depth, r.count_by_arity(3)) == cost
    assert ir.cancel_inverses(circ.gates, circ.dims) == circ.gates
    assert sha256(ir.dumps(circ)) == digest
    v0 = json.dumps(oracle.circuit_to_dict(circ), indent=2)
    assert sha256(v0) == digest_v0
    back = ir.loads(v0)
    assert back.wires == circ.wires
    assert back.gates == circ.gates
