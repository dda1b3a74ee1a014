"""Desk-scale laboratory for directed polymers in a Gaussian random environment.

The public API is the package's modules, imported by name, and the
``polymerlab`` console script (``polymerlab.cli``).
"""

__version__ = "0.10.0"
