"""Quantify empirical support for ten defect-prediction beliefs from a git
repository's release history."""

__version__ = "0.1.0"
