"""Nonlinear semigroups from generating families by dyadic Chernoff iteration."""

__version__ = "0.1.0"
