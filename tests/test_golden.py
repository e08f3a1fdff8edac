"""Byte-identity of `radixcirc build` output.

Each sha256 pins `ir.dumps(circ, indent=2)` for one build configuration, so
a refactor that changes any wire, name or gate of these circuits fails here.
A change that alters a circuit on purpose updates the hash and says so.
"""
import hashlib

import pytest

from radixcirc import cli, ir

K78 = int("10" * 39, 2)
K36 = int("10" * 18, 2)
K240 = int("10" * 120, 2)

GOLDEN = [
    ("block-adder --n 30 --scheme 231 --carry-out", "fddf70d49932ce98cff9781df7bfe98f9d9848022a9e5e58814e5665abb87df0"),
    ("block-adder --n 30 --scheme 241 --carry-out", "8a5f665f551265423ef3827f535b62b6ac1946af28f2b70675931a5113d638e6"),
    ("block-adder --n 30 --scheme 231 --carry-in", "4ce215e5e287e3b3c8ff2c986658c081720fe74674a8c5f8f08622de48cb1ef6"),
    (f"block-plus-k --n 78 --scheme 231 --carry-out --k {K78}", "b34e046776f66ad1c2c217a577db5d567bfba5be2d5774dcdbc4a64022be0198"),
    (f"block-plus-k --n 36 --scheme 241 --carry-in --carry-out --k {K36}", "bb656878b22b13130413a73fd40165d0fb042b3f77d0bcef63bb2c4101cc1448"),
    ("cla-adder --n 30 --carry-in --carry-out", "9ff773590dd4f9d63dae2d8c9c915a2f83f63f4e9413f93db8b07a108bb63467"),
    ("plus-k --n 30 --carry-out --k 123456789", "c4c7f71e0cab565077c1609272850882de104a752e8929ebe84f7aec043a469f"),
    ("ripple-adder --n 30 --carry-in --carry-out", "27064f2579f378b610be9ac4057e61b36cb8ceb39e2e7090da6c3a7d2f056801"),
    ("compress231", "afa54eac2ae82b528df594be36d2d5e9e75afc3271b627b1b9664c73d03a45d3"),
    ("compress241", "05ff7bbdfe12941e03d9ed36e30097b137b08efd783291ed998c8b74b01f5210"),
    # The five n=240 build-flagship configurations.
    ("block-adder --n 240 --scheme 231 --carry-out", "16e34d47219ea7eb8fa95b69b1a5b79484e3daba0f323bd1ef66928cc2a2117a"),
    ("block-adder --n 240 --scheme 241 --carry-out", "9ff55e2f64dc1f12a2dd93a8f3550b25a902553b59b8f6bb8ec4db6d781caa3c"),
    (f"block-plus-k --n 240 --scheme 231 --carry-out --k {K240}", "82133cc43a99af9ba3872c0915f724b5284433fde5b762c9594e199ea65c626b"),
    (f"block-plus-k --n 240 --scheme 241 --carry-in --carry-out --k {K240}", "4a6c6457bbbdd25456ba87534b3d4b6a66e78878ccf8a08bf0ddff5c37f8ac44"),
    ("cla-adder --n 240 --carry-out", "8a61b493e4569bfcd97419cc1943ab72ffe34036cd0ae121b803c84b6184c7e0"),
]


@pytest.mark.parametrize("flags,digest", GOLDEN, ids=[f.split(" --k")[0] for f, _ in GOLDEN])
def test_build_output_is_byte_identical(flags, digest):
    args = cli.make_parser().parse_args(["build", "--kind", *flags.split()])
    circ, _ = cli.build_kind(args)
    text = ir.dumps(circ, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
