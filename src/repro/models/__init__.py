"""Brute-force model theory (ground truth for the oracle engines)."""

from .enumeration import (
    all_models,
    minimal_models_brute,
    models_entail_brute,
    pz_minimal_models_brute,
    prioritized_minimal_models_brute,
)

__all__ = [
    "all_models",
    "minimal_models_brute",
    "models_entail_brute",
    "pz_minimal_models_brute",
    "prioritized_minimal_models_brute",
]
