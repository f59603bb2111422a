"""Statevector simulator with an amplitude-encoded interference classifier,
gate decomposition to a restricted hardware set, shot statistics, and a
benchmark harness. Each public name is imported from the module that
defines it (``from qic.classifier import read_batch``); the package holds
only ``__version__``, so ``import qic`` loads no submodule."""

__version__ = "0.1.0"
