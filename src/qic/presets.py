"""Pinned demo vectors for the two-training-point experiment.

The training pair and the two benchmark inputs are stored as printed at three
decimals and renormalized to unit length, so every consumer (circuit builder,
classifier, CLI) works from identical data.
"""

from __future__ import annotations

import numpy as np

from .classifier import TrainingSet
from .encoding import normalize

X0 = normalize([0.0, 1.0])
X1 = normalize([0.789, 0.615])
Y0, Y1 = -1, +1

INPUT_VECTORS = {
    "xprime": normalize([-0.549, 0.836]),
    "xdoubleprime": normalize([0.053, 0.999]),
}

PRESET_NAMES = tuple(INPUT_VECTORS)


def training_set() -> TrainingSet:
    return TrainingSet(vectors=np.stack([X0, X1]), labels=np.array([Y0, Y1]))


def preset_input(name: str) -> np.ndarray:
    try:
        return INPUT_VECTORS[name].copy()
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
