"""Core domain types and survival-function families.

Pure data and pure functions: a broadcast schedule, per-follower behavioural
parameters, and the parametric survival curves that model timeline consumption
(how deep a follower scrolls before quitting) and cluster skipping (whether a
run of same-author posts is skimmed over in irritation). Everything here is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAMILIES",
    "SurvivalModel",
    "Schedule",
    "FollowerProfile",
    "ProblemInstance",
    "survival_eval",
    "survival_array",
    "follower_survival",
    "cluster_survival",
]

FAMILIES = ("exponential", "geometric", "weibull", "loglogistic", "rayleigh")


@dataclass(frozen=True)
class SurvivalModel:
    """Parametric survival curve on x >= 0.

    `lam` is the rate/scale parameter; `p` is the shape parameter used only by
    the weibull and loglogistic families and ignored by the rest.
    """

    family: str
    lam: float
    p: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown survival family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family == "geometric":
            if not 0.0 < self.lam <= 1.0:
                raise ValueError(
                    f"geometric survival requires 0 < lambda <= 1, got lambda={self.lam}"
                )
        elif not self.lam > 0.0:
            raise ValueError(
                f"{self.family} survival requires lambda > 0, got lambda={self.lam}"
            )
        elif self.lam == math.inf:
            raise ValueError(f"{self.family} survival requires a finite lambda, got lambda=inf")
        if self.family in ("weibull", "loglogistic"):
            if not self.p > 0.0:
                raise ValueError(f"{self.family} survival requires p > 0, got p={self.p}")
            if self.p == math.inf:
                raise ValueError(f"{self.family} survival requires a finite p, got p=inf")


def survival_eval(model: SurvivalModel, x: float) -> float:
    """Survival probability at x; equals 1 at x=0 and is non-increasing in x."""
    if x < 0:
        raise ValueError(f"survival functions are defined for x >= 0, got x={x}")
    fam = model.family
    if fam == "exponential":
        return math.exp(-model.lam * x)
    if fam == "geometric":
        return (1.0 - model.lam) ** x
    if fam == "weibull":
        return math.exp(-model.lam * x**model.p)
    if fam == "loglogistic":
        return 1.0 / (1.0 + model.lam * x**model.p)
    return math.exp(-(x * x) / (2.0 * model.lam * model.lam))


def survival_array(family: str, lam, p: float, x: np.ndarray) -> np.ndarray:
    """`survival_eval` on arrays: `lam` broadcasts against `x >= 0`, and the
    parameters are taken as already checked by `SurvivalModel`."""
    if family == "exponential":
        return np.exp(-lam * x)
    if family == "geometric":
        return (1.0 - lam) ** x
    if family == "weibull":
        return np.exp(-lam * x**p)
    if family == "loglogistic":
        return 1.0 / (1.0 + lam * x**p)
    return np.exp(-(x * x) / (2.0 * lam * lam))


@dataclass(frozen=True)
class Schedule:
    """Per-slot broadcast counts for one recurring day."""

    posts: tuple[int, ...]

    def __post_init__(self) -> None:
        norm = []
        for v in self.posts:
            iv = int(v)
            if iv != v or iv < 0:
                raise ValueError(
                    f"schedule entries must be non-negative integers, got {v!r}"
                )
            norm.append(iv)
        object.__setattr__(self, "posts", tuple(norm))

    @classmethod
    def zeros(cls, slots: int) -> "Schedule":
        return cls((0,) * slots)

    @property
    def spend(self) -> int:
        return sum(self.posts)

    def with_added(self, slot: int) -> "Schedule":
        posts = list(self.posts)
        posts[slot] += 1
        return Schedule(tuple(posts))

    def __len__(self) -> int:
        return len(self.posts)


@dataclass(frozen=True)
class FollowerProfile:
    """Behavioural profile of one follower.

    sigma  -- login slot: the follower reads her timeline at the end of this slot
    rho    -- quit tendency in [0, 1]; 0 reads everything, 1 reads nothing
    delta  -- monotony tolerance in [0, 1]; 0 always skips multi-post clusters,
              1 never skips
    gamma  -- non-negative timeline weight
    competitor_load -- mean daily posts by the follower's other followees,
              one non-negative real per slot
    """

    id: str
    sigma: int
    rho: float
    delta: float
    gamma: float = 1.0
    competitor_load: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if int(self.sigma) != self.sigma or self.sigma < 0:
            raise ValueError(f"sigma must be a non-negative slot index, got {self.sigma!r}")
        object.__setattr__(self, "sigma", int(self.sigma))
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        load = tuple(float(c) for c in self.competitor_load)
        bad = [c for c in load if not 0.0 <= c < math.inf]
        if bad:
            raise ValueError(f"competitor_load entries must be finite and >= 0, got {bad[0]}")
        object.__setattr__(self, "competitor_load", load)


@dataclass(frozen=True)
class ProblemInstance:
    """A scheduling problem: slot count, post budget and follower population.

    The survival families govern how follower `rho`/`delta` are interpreted:
    the geometric defaults use the closed forms (1-rho)^d and delta^(x-1);
    any other family reads the raw field value directly as its lambda, with
    the shape parameter supplied here.
    """

    slots: int
    budget: int
    followers: tuple[FollowerProfile, ...]
    follower_survival_family: str = "geometric"
    cluster_survival_family: str = "geometric"
    follower_survival_p: float = 1.0
    cluster_survival_p: float = 1.0
    cluster_survival_shifted: bool = True

    def __post_init__(self) -> None:
        if int(self.slots) != self.slots or self.slots < 1:
            raise ValueError(f"slots must be a positive integer, got {self.slots!r}")
        if int(self.budget) != self.budget or self.budget < 0:
            raise ValueError(f"budget must be a non-negative integer, got {self.budget!r}")
        object.__setattr__(self, "slots", int(self.slots))
        object.__setattr__(self, "budget", int(self.budget))
        object.__setattr__(self, "followers", tuple(self.followers))
        for fam, p in (
            (self.follower_survival_family, self.follower_survival_p),
            (self.cluster_survival_family, self.cluster_survival_p),
        ):
            if fam not in FAMILIES:
                raise ValueError(f"unknown survival family {fam!r}; expected one of {FAMILIES}")
            if not math.isfinite(p):
                raise ValueError(f"survival shape p must be finite, got p={p}")
            if fam in ("weibull", "loglogistic") and not p > 0.0:
                raise ValueError(f"{fam} survival requires p > 0, got p={p}")
        for f in self.followers:
            if f.sigma >= self.slots:
                raise ValueError(
                    f"follower {f.id!r} has sigma={f.sigma} outside the {self.slots} slots"
                )
            if len(f.competitor_load) != self.slots:
                raise ValueError(
                    f"follower {f.id!r} has a competitor load of length "
                    f"{len(f.competitor_load)}, expected {self.slots}"
                )


def follower_survival(
    follower: FollowerProfile, d: float, family: str = "geometric", p: float = 1.0
) -> float:
    """Probability that the follower scrolls at least d posts deep.

    The geometric default reads `rho` as a per-post quit probability,
    giving (1 - rho)^d; the boundary values rho=0 (reads everything) and
    rho=1 (reads nothing) are allowed. Other families read `rho` directly
    as their lambda.
    """
    if d < 0:
        raise ValueError(f"depth must be >= 0, got {d}")
    if family == "geometric":
        return (1.0 - follower.rho) ** d
    return survival_eval(SurvivalModel(family, follower.rho, p), d)


def cluster_survival(
    follower: FollowerProfile,
    x: int,
    family: str = "geometric",
    p: float = 1.0,
    shifted: bool = True,
) -> float:
    """Probability that a cluster of x same-author posts is not skipped.

    With `shifted` (the default) the curve is evaluated at x - 1, so a
    singleton cluster always survives; geometric then gives delta^(x-1).
    Pass shifted=False for the delta^x convention. Non-geometric families
    read `delta` directly as their lambda.
    """
    if int(x) != x or x < 1:
        raise ValueError(f"cluster size must be an integer >= 1, got {x!r}")
    eff = x - 1 if shifted else x
    if family == "geometric":
        return follower.delta**eff
    return survival_eval(SurvivalModel(family, follower.delta, p), eff)
