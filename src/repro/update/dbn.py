"""Discrete dynamic Bayesian network substrate for change inference.

SLAMCU [41] frames map-change detection as inference in a DBN whose nodes
move from *unknown* to *estimated* as measurements arrive. The reusable
core is a per-feature discrete filter: a hidden state (e.g. PRESENT /
REMOVED) with a transition prior and per-step observation likelihoods,
updated by the forward algorithm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class FeatureState(enum.Enum):
    PRESENT = 0
    REMOVED = 1


@dataclass
class DiscreteDBN:
    """Forward-filtered discrete hidden-state chain.

    ``transition[i, j]`` = P(state_t = j | state_{t-1} = i); ``belief`` is
    the current filtered distribution.
    """

    transition: np.ndarray
    belief: np.ndarray

    def __post_init__(self) -> None:
        self.transition = np.asarray(self.transition, dtype=float)
        self.belief = np.asarray(self.belief, dtype=float)
        n = self.transition.shape[0]
        if self.transition.shape != (n, n):
            raise ValueError("transition must be square")
        if not np.allclose(self.transition.sum(axis=1), 1.0):
            raise ValueError("transition rows must sum to 1")
        if self.belief.shape != (n,):
            raise ValueError("belief size must match transition")
        self.belief = self.belief / self.belief.sum()

    @staticmethod
    def presence_chain(p_disappear: float = 0.02,
                       p_reappear: float = 0.0,
                       prior_present: float = 0.95) -> "DiscreteDBN":
        """The two-state PRESENT/REMOVED chain SLAMCU runs per feature."""
        return DiscreteDBN(
            transition=np.array([
                [1.0 - p_disappear, p_disappear],
                [p_reappear, 1.0 - p_reappear],
            ]),
            belief=np.array([prior_present, 1.0 - prior_present]),
        )

    def predict(self) -> None:
        self.belief = self.belief @ self.transition

    def update(self, likelihood: Sequence[float]) -> None:
        lk = np.asarray(likelihood, dtype=float)
        if lk.shape != self.belief.shape:
            raise ValueError("likelihood size mismatch")
        post = self.belief * lk
        total = post.sum()
        if total <= 0:
            return  # uninformative measurement
        self.belief = post / total

    def step(self, likelihood: Sequence[float]) -> None:
        self.predict()
        self.update(likelihood)

    def probability(self, state: int) -> float:
        return float(self.belief[state])
