"""Core domain types and survival-function families.

Pure data and pure functions: a broadcast schedule, per-follower behavioural
parameters, and the parametric survival curves that model timeline consumption
(how deep a follower scrolls before quitting) and cluster skipping (whether a
run of same-author posts is skimmed over in irritation). Everything here is
immutable after construction and safe to share across threads. A problem
instance holds its followers as columns (`Followers`), so a population of any
size costs a few arrays, not one object per follower.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAMILIES",
    "SurvivalModel",
    "Schedule",
    "FollowerProfile",
    "Followers",
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
    return float(survival_array(model.family, model.lam, model.p, x))


def survival_array(family: str, lam, p: float, x: np.ndarray, power=operator.pow) -> np.ndarray:
    """The five survival formulas, on arrays or scalars (`survival_eval` reads
    them here): `lam` broadcasts against `x >= 0`, and the parameters are taken
    as already checked by `SurvivalModel`.

    `power(base, exponent)` takes every power. The default is `**`, which on
    arrays may use numpy's vector routines and differ from the C library's
    `pow` in the last bit. `np.float_power` calls that `pow` per element, so
    on arrays it gives the bits of this function on Python scalars."""
    if family == "exponential":
        return np.exp(-lam * x)
    if family == "geometric":
        return power(1.0 - lam, x)
    if family == "weibull":
        return np.exp(-lam * power(x, p))
    if family == "loglogistic":
        return 1.0 / (1.0 + lam * power(x, p))
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
        for name in ("sigma", "rho", "delta", "gamma"):
            _numbers(name, (getattr(self, name),))
        _numbers("competitor_load", self.competitor_load)
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


def _numbers(name: str, values) -> None:
    """Refuse text and None among `values`, which would otherwise be parsed or
    read as NaN, or fail a comparison with a message that does not name them."""
    for v in values:
        if isinstance(v, (str, bytes)):
            raise TypeError(f"{name} must hold numbers, not text")
        if v is None:
            raise TypeError(f"{name} must hold numbers, not None")


def _column(name: str, values, dtype) -> np.ndarray:
    """`values` as an array of `dtype`, with no value changed on the way: text
    and None are refused, not parsed, and so is a sigma that is not a whole
    number."""
    a = np.asarray(values)
    if a.dtype.kind in "OSU":
        _numbers(name, a.flat)
    if dtype is np.intp and a.dtype.kind not in "biu":
        bad = [v for v in a.tolist() if not (math.isfinite(v) and v == int(v))]
        if bad:
            raise ValueError(f"{name} must be a non-negative slot index, got {bad[0]!r}")
    return a.astype(dtype, copy=False)


def _frozen(*arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


def _left_sum(values):
    """`sum(values)` added left to right, as `sum` adds floats before Python 3.12."""
    return functools.reduce(operator.add, values, 0)


class _Columns(Sequence):
    """A read-only sequence over column arrays whose items are built on access.
    It compares equal to the tuple of its items."""

    def __getitem__(self, i):
        k = operator.index(i)
        if not -len(self) <= k < len(self):
            raise IndexError(f"{type(self).__name__} index {i} out of range")
        return self._item(k % len(self))

    def __eq__(self, other):
        if isinstance(other, (tuple, _Columns)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class Followers(_Columns):
    """A follower population as read-only columns, one entry per follower:
    `ids` (a tuple of str), `sigma` (intp), `rho`, `delta` and `gamma`
    (float64), and the (followers x slots) float64 `competitor_load`. Items
    are `FollowerProfile`s built on access; `len` builds none. The arrays
    given are kept as they are (shared, not copied) and made read-only; see
    `_column` for what is refused."""

    def __init__(self, ids, sigma, rho, delta, gamma, competitor_load):
        self.ids = tuple(ids)
        self.sigma = _column("sigma", sigma, np.intp)
        self.rho = _column("rho", rho, float)
        self.delta = _column("delta", delta, float)
        self.gamma = _column("gamma", gamma, float)
        self.competitor_load = _column("competitor_load", competitor_load, float)
        _frozen(self.sigma, self.rho, self.delta, self.gamma, self.competitor_load)

    @classmethod
    def of(cls, profiles: tuple[FollowerProfile, ...], slots: int) -> "Followers":
        """The columns of profiles whose loads have `slots` entries each."""
        loads = np.array([f.competitor_load for f in profiles], dtype=float)
        return cls(
            [f.id for f in profiles],
            [f.sigma for f in profiles],
            [f.rho for f in profiles],
            [f.delta for f in profiles],
            [f.gamma for f in profiles],
            loads.reshape(len(profiles), slots),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def _item(self, k: int) -> FollowerProfile:
        return FollowerProfile(
            self.ids[k],
            int(self.sigma[k]),
            float(self.rho[k]),
            float(self.delta[k]),
            float(self.gamma[k]),
            tuple(self.competitor_load[k].tolist()),
        )


@dataclass(frozen=True)
class ProblemInstance:
    """A scheduling problem: slot count, post budget and follower population.

    The survival families govern how follower `rho`/`delta` are interpreted:
    the geometric defaults use the closed forms (1-rho)^d and delta^(x-1);
    any other family reads the raw field value directly as its lambda, with
    the shape parameter supplied here.

    `followers` may be given as `FollowerProfile`s or as `Followers` columns,
    and is held as `Followers`. Columns are checked as a whole; a bad
    follower is named with the message its profile or this class raises.
    """

    slots: int
    budget: int
    followers: Sequence[FollowerProfile]
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
        for fam, p in (
            (self.follower_survival_family, self.follower_survival_p),
            (self.cluster_survival_family, self.cluster_survival_p),
        ):
            if fam in FAMILIES and not math.isfinite(p):
                raise ValueError(f"survival shape p must be finite, got p={p}")
            SurvivalModel(fam, 1.0, p)
        followers = self.followers
        if not isinstance(followers, Followers):
            followers = tuple(followers)
            for f in followers:
                self._check(f)
            followers = Followers.of(followers, self.slots)
        elif len(followers):
            f = followers
            ok = (
                (f.sigma >= 0) & (f.sigma < self.slots)
                & (f.rho >= 0.0) & (f.rho <= 1.0)
                & (f.delta >= 0.0) & (f.delta <= 1.0)
                & (f.gamma >= 0.0) & (f.gamma < math.inf)
                & ((f.competitor_load >= 0.0) & (f.competitor_load < math.inf)).all(axis=1)
                & (f.competitor_load.shape[1] == self.slots)
            )
            if not ok.all():  # the first bad profile raises, or else fails `_check`
                self._check(f[int(np.argmin(ok))])
        object.__setattr__(self, "followers", followers)

    def _check(self, f: FollowerProfile) -> None:
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
