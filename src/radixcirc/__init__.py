"""Mixed-radix reversible circuits: compression, log-depth adders, block adders."""

from . import block_builder, compress, ir, qubit_adders, resources, sim

__all__ = [
    "block_builder",
    "cli",
    "compress",
    "ir",
    "qubit_adders",
    "resources",
    "sim",
]

__version__ = "0.1.0"
