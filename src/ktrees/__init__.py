"""Exact sub-k-tree polynomials and local mean orders of k-trees."""

from . import chartree, core, isomorphism, kelmans_ops, oracle, polynomials

__version__ = "0.1.0"
