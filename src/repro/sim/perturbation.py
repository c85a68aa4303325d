"""Seeded runtime perturbations: duration jitter and task failure/retry.

A :class:`PerturbationModel` is pure data describing how a simulated run
deviates from the modeled schedule:

* **duration jitter** — every attempt's execution time is the modeled
  design-point time multiplied by a random factor with mean 1:
  ``lognormal`` (sigma = ``jitter``, the classic heavy-right-tail runtime
  noise) or ``uniform`` (on ``[1 - jitter, 1 + jitter]``);
* **failure + retry** — each attempt independently fails with probability
  ``failure_rate``; a failed attempt consumes its full (perturbed)
  duration and current, then the task re-enters the ready set and is
  retried, up to ``max_retries`` extra attempts.

All randomness flows through an explicit :class:`numpy.random.Generator`
handed to the draw methods — the model itself holds no state — so a
(seed, policy) pair fully determines a run: the simulator draws in event
order, which is deterministic, so a simulation job's content hash fully
determines its result and the engine can resume it from a result store.
:func:`rng_for_seed` builds the canonical PCG64 stream used throughout the
sim stack (``SeedSequence([seed, replication])`` keeps replications
independent without magic offsets).

>>> model = PerturbationModel(jitter=0.2)
>>> rng = rng_for_seed(7)
>>> 0.0 < model.duration_factor(rng) < 10.0
True
>>> PerturbationModel.from_dict(model.to_dict()) == model
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import ConfigurationError

__all__ = ["JITTER_MODELS", "PerturbationModel", "rng_for_seed"]

#: Supported multiplicative jitter distributions.
JITTER_MODELS = ("lognormal", "uniform")


def rng_for_seed(
    seed: Union[int, Sequence[int]], replication: Optional[int] = None
) -> np.random.Generator:
    """The sim stack's canonical seeded generator (PCG64 via SeedSequence).

    ``replication`` (when given) is folded into the seed material, so each
    replication of a simulation job draws from an independent stream while
    staying a pure function of ``(seed, replication)``.
    """
    material = list(seed) if isinstance(seed, (list, tuple)) else [int(seed)]
    if replication is not None:
        material.append(int(replication))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(material)))


@dataclass(frozen=True)
class PerturbationModel:
    """Stochastic runtime deviations applied to every simulated attempt.

    Attributes
    ----------
    jitter:
        Spread of the multiplicative duration noise (0 disables jitter).
        For ``lognormal`` this is the underlying normal's sigma; for
        ``uniform`` the half-width of the factor interval.
    jitter_model:
        One of :data:`JITTER_MODELS`.
    failure_rate:
        Per-attempt failure probability in ``[0, 1)``.
    max_retries:
        Extra attempts allowed per task before the simulator abandons the
        run with a :class:`~repro.errors.SimulationError`.
    """

    jitter: float = 0.0
    jitter_model: str = "lognormal"
    failure_rate: float = 0.0
    max_retries: int = 16

    def __post_init__(self) -> None:
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter!r}")
        if self.jitter_model not in JITTER_MODELS:
            raise ConfigurationError(
                f"unknown jitter model {self.jitter_model!r}; "
                f"choose from {JITTER_MODELS}"
            )
        if self.jitter_model == "uniform" and self.jitter >= 1.0:
            raise ConfigurationError(
                "uniform jitter must be < 1 (duration factors stay positive), "
                f"got {self.jitter!r}"
            )
        if not (0.0 <= self.failure_rate < 1.0):
            raise ConfigurationError(
                f"failure_rate must be within [0, 1), got {self.failure_rate!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )

    # ------------------------------------------------------------------
    # draws (explicit generator in, value out; the model holds no state)
    # ------------------------------------------------------------------
    @property
    def is_null(self) -> bool:
        """True when the model perturbs nothing (deterministic runs).

        A null model draws nothing from the generator, which is what makes
        a zero-perturbation simulation bit-identical to the offline
        evaluation regardless of seed.
        """
        return self.jitter == 0.0 and self.failure_rate == 0.0

    def duration_factor(self, rng: np.random.Generator) -> float:
        """One multiplicative duration factor (mean 1, strictly positive)."""
        if self.jitter == 0.0:
            return 1.0
        if self.jitter_model == "uniform":
            return float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))
        # Lognormal with E[factor] = 1: mean of the underlying normal is
        # -sigma^2/2.
        return float(rng.lognormal(-0.5 * self.jitter * self.jitter, self.jitter))

    def duration_factors(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` duration factors in one draw, bitwise equal to ``count``
        successive :meth:`duration_factor` calls on the same generator."""
        if self.jitter == 0.0:
            return np.ones(count)
        if self.jitter_model == "uniform":
            return rng.uniform(1.0 - self.jitter, 1.0 + self.jitter, size=count)
        return rng.lognormal(-0.5 * self.jitter * self.jitter, self.jitter, size=count)

    def draw_failure(self, rng: np.random.Generator) -> bool:
        """Whether one attempt fails (independent Bernoulli draw)."""
        if self.failure_rate == 0.0:
            return False
        return bool(rng.random() < self.failure_rate)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (inverse of :meth:`from_dict`)."""
        return {
            "jitter": self.jitter,
            "jitter_model": self.jitter_model,
            "failure_rate": self.failure_rate,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PerturbationModel":
        """Rebuild a model from its :meth:`to_dict` form."""
        return cls(
            jitter=float(data.get("jitter", 0.0)),
            jitter_model=str(data.get("jitter_model", "lognormal")),
            failure_rate=float(data.get("failure_rate", 0.0)),
            max_retries=int(data.get("max_retries", 16)),
        )
