"""Reversible arithmetic blocks (the Shor-workload substrate)."""

from .adders import (
    constant_adder,
    controlled_increment,
    cuccaro_adder,
    modular_constant_adder,
)

__all__ = [
    "constant_adder",
    "controlled_increment",
    "cuccaro_adder",
    "modular_constant_adder",
]
