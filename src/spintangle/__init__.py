"""Pulse-sequence design and entanglement analysis for central-spin registers."""

from .spin_model import (
    NuclearSpinParams,
    ElectronQubitSpec,
    PulseSequence,
    ConditionalRotation,
    Rotation,
    build_sequence,
    unit_propagator,
    iterate,
    resonance_time,
    coherence,
    trivial_evolution_condition,
    closed_form_angles,
)

__version__ = "0.1.0"
