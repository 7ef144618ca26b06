"""Local differential privacy for unified-rep uploads: per-coordinate clip to
[-c, c] followed by independent Laplace noise with scale 2c/epsilon."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass
class LdpConfig:
    """``epsilon`` is per coordinate: each coordinate of an upload is
    clipped to [-clip, clip] and gets Laplace noise of scale 2 clip/epsilon.
    One release of a unified rep of width ``rep`` (L1 sensitivity
    2 clip rep) is thus (rep * epsilon)-LDP by basic composition: 3,200 at
    rep 400 and epsilon 8."""

    enabled: bool = False
    clip: float = 1.0
    epsilon: float = 8.0
    #: also perturb the unified-rep upload inside training rounds (not just serving)
    perturb_training: bool = True

    def validate(self) -> None:
        if self.clip <= 0:
            raise ConfigError(f"clip bound must be positive, got {self.clip}")
        if self.enabled and self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive when enabled, got {self.epsilon}")


def ldp_perturb(s: np.ndarray, cfg: LdpConfig, rng: np.random.Generator) -> np.ndarray:
    if not cfg.enabled:
        raise ConfigError("ldp_perturb called with LDP disabled")
    cfg.validate()
    clipped = np.clip(s, -cfg.clip, cfg.clip)
    scale = 2.0 * cfg.clip / cfg.epsilon
    return clipped + rng.laplace(loc=0.0, scale=scale, size=s.shape)
