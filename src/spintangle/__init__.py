"""Pulse-sequence design and entanglement analysis for central-spin registers."""

__version__ = "0.1.0"
