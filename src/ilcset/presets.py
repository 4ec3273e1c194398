"""Built-in experiment presets.

Two benchmark plants share one 4-state tracking task over N = 100 steps:
a direct-feedthrough plant driven through Xi with three inputs and two
outputs, and a feedthrough-free variant of the same plant driven through
Gamma.  The ``*-clean`` versions zero every uncertainty amplitude so the
asymptotically perfect-tracking regime is reachable exactly.  Each preset
is defined once, as the shipped document ``data/<name>.json``, which can
be copied out and edited as a config file.
"""

from __future__ import annotations

import json
from importlib import resources

from .config import ExperimentConfig, config_from_dict

PRESET_NAMES = ("example1", "example2", "example1-clean", "example2-clean")


def preset_config(name: str, seed: int | None = None,
                  iterations: int | None = None) -> dict:
    """The JSON document of a named preset, with the seed and iteration
    count replaced where given (the documents ship 42 and 300)."""
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r} (expected one of {PRESET_NAMES})")
    source = resources.files(__package__) / "data" / f"{name}.json"
    doc = json.loads(source.read_text(encoding="utf-8"))
    if seed is not None:
        doc["uncertainty"]["seed"] = seed
    if iterations is not None:
        doc["run"]["iterations"] = iterations
    return doc


def build_preset(name: str, seed: int | None = None,
                 iterations: int | None = None) -> ExperimentConfig:
    """Build a preset through the same validation path as a config file."""
    return config_from_dict(preset_config(name, seed=seed, iterations=iterations))
