"""Deterministic simulator of direct load control on a stressed grid."""

__version__ = "0.4.0"
