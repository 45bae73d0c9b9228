"""Seeded synthetic inputs for the feedsched benchmark.

Two generators, both pure functions of their seed and sizes:

* `trace_and_graph` builds an activity trace and a follow graph: one producer,
  a population of followers who each follow the producer and a few competitor
  accounts, competitors who post on a diurnal rhythm, and followers who log in
  once a day around a personal hour, scroll a random depth down their
  timeline and react to some of what they saw.
* `instance_dict` builds a problem instance directly, in the JSON layout of
  `feedsched.formats.instance_to_dict`, with day-shaped competitor loads.

The `write_*` helpers emit canonical bytes, so the same seed always writes
byte-identical files. Only the standard library and numpy are used; nothing
here imports feedsched, so test fixtures can reuse the module freely.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

__all__ = [
    "EPOCH",
    "PRODUCER",
    "HOURLY_LOAD",
    "LOGIN_WEIGHTS",
    "COMPETITOR_RATE",
    "PRODUCER_RATE",
    "LOGIN_PROB",
    "POST_PROB",
    "trace_and_graph",
    "instance_dict",
    "write_trace",
    "write_graph",
    "write_json",
]

SECONDS_PER_DAY = 86400
# A UTC midnight, so slot boundaries fall on whole hours of the local day.
EPOCH = 1_300_000_000 - 1_300_000_000 % SECONDS_PER_DAY
PRODUCER = "producer"

# Relative competitor activity per hour of the day: heavy working hours, a
# lunchtime dip and a deep late-night trough.
HOURLY_LOAD = np.array(
    [0.05] * 7 + [10.0] * 5 + [0.6] + [10.0] * 5 + [2.0] * 5 + [0.05]
)
# Relative weight of each hour as a follower's login hour.
LOGIN_WEIGHTS = np.array([1.0] * 7 + [3.0] * 3 + [2.0] * 8 + [2.5] * 5 + [1.0])
# Mean posts per day of a competitor (before its 0.6-1.4 spread) and of the
# producer; chance a follower logs in on a given day, and posts when they do.
COMPETITOR_RATE = 4.5
PRODUCER_RATE = 4.0
LOGIN_PROB = 0.8
POST_PROB = 0.3


def _hour_draws(rng: np.random.Generator, weights: np.ndarray, n: int) -> np.ndarray:
    """Second-of-day offsets of `n` events whose hours follow `weights`."""
    hours = rng.choice(24, size=n, p=weights / weights.sum())
    return hours * 3600 + rng.integers(0, 3600, size=n)


def _spread(rng: np.random.Generator, low: float, high: float, n: int) -> list[float]:
    """`n` evenly spaced values on [low, high] in seeded random order.

    Used instead of independent uniform draws so that population totals, and
    with them the amount of work an input causes, do not drift with the seed.
    """
    return [float(v) for v in rng.permutation(np.linspace(low, high, n))]


def trace_and_graph(
    seed: int,
    *,
    followers: int = 250,
    competitors: int = 120,
    followees: int = 12,
    days: int = 30,
) -> tuple[list[dict], list[tuple[str, str]]]:
    """Trace events (as trace-JSONL dicts) and follow edges for one population.

    Competitor and producer posts follow `HOURLY_LOAD` and a flat day
    respectively; competitor rates are spread over 0.6-1.4 times
    `COMPETITOR_RATE`. Each follower logs in on a given day with `LOGIN_PROB`,
    at their personal login hour plus jitter, scrolls a geometric depth down the
    newest-first timeline of the last 24 hours, and retweets or replies to each
    post they pass with a personal probability; producer posts get an extra
    personal tie bonus. Events are returned in canonical order.
    """
    rng = np.random.default_rng(seed)
    comp_ids = [f"c{k:04d}" for k in range(competitors)]
    fol_ids = [f"f{k:05d}" for k in range(followers)]

    posts: dict[str, np.ndarray] = {}
    events: list[dict] = []

    def emit_posts(user: str, rate: float, weights: np.ndarray) -> None:
        stamps = []
        for day in range(days):
            n = int(rng.poisson(rate))
            stamps.extend(EPOCH + day * SECONDS_PER_DAY + _hour_draws(rng, weights, n))
        arr = np.sort(np.array(stamps, dtype=np.int64))
        posts[user] = arr
        events.extend({"user": user, "ts": int(t), "kind": "post"} for t in arr)

    emit_posts(PRODUCER, PRODUCER_RATE, np.ones(24))
    for c, scale in zip(comp_ids, _spread(rng, 0.6, 1.4, competitors)):
        emit_posts(c, COMPETITOR_RATE * scale, HOURLY_LOAD)

    edges: list[tuple[str, str]] = []
    login_p = LOGIN_WEIGHTS / LOGIN_WEIGHTS.sum()
    depths = _spread(rng, 5.0, 40.0, followers)
    react_ps = _spread(rng, 0.02, 0.08, followers)
    tie_bonuses = _spread(rng, 0.0, 0.3, followers)
    for f, mean_depth, react_p, tie_bonus in zip(fol_ids, depths, react_ps, tie_bonuses):
        chosen = sorted(rng.choice(competitors, size=followees, replace=False))
        authors = [PRODUCER] + [comp_ids[k] for k in chosen]
        edges.extend((f, a) for a in authors)

        feed_ts = np.concatenate([posts[a] for a in authors])
        feed_author = np.concatenate(
            [np.full(len(posts[a]), k) for k, a in enumerate(authors)]
        )
        order = np.argsort(feed_ts, kind="stable")
        feed_ts, feed_author = feed_ts[order], feed_author[order]

        login_hour = int(rng.choice(24, p=login_p))
        for day in range(days):
            if rng.random() >= LOGIN_PROB:
                continue
            jitter = int(rng.normal(0.0, 2400.0))
            t = EPOCH + day * SECONDS_PER_DAY + login_hour * 3600 + 1800 + jitter
            hi = int(np.searchsorted(feed_ts, t, side="right"))
            lo = int(np.searchsorted(feed_ts, t - SECONDS_PER_DAY, side="right"))
            depth = int(rng.geometric(1.0 / (1.0 + mean_depth)))
            seen = feed_author[lo:hi][::-1][:depth]
            bonus = np.where(seen == 0, tie_bonus, 0.0)
            reacted = seen[rng.random(len(seen)) < react_p + bonus]
            kinds = rng.random(len(reacted)) < 0.7
            for k, (a, retweet) in enumerate(zip(reacted, kinds)):
                events.append(
                    {
                        "user": f,
                        "ts": t + 20 * (k + 1),
                        "kind": "retweet" if retweet else "reply",
                        "target_author": authors[int(a)],
                    }
                )
            if rng.random() < POST_PROB:
                events.append({"user": f, "ts": t + 15, "kind": "post"})
    events.sort(key=lambda e: (e["ts"], e["user"], e["kind"], e.get("target_author", "")))
    return events, edges


def instance_dict(
    seed: int,
    *,
    followers: int,
    slots: int = 24,
    budget: int = 24,
    follower_survival_family: str = "geometric",
    follower_survival_p: float = 1.0,
    cluster_survival_family: str = "geometric",
    cluster_survival_p: float = 1.0,
) -> dict:
    """Instance JSON dict with day-shaped competitor loads.

    A slot's mean load is the mean of `HOURLY_LOAD` over its hours, and each
    follower scales every slot by an independent factor in [0.7, 1.3]. Login
    slots follow `LOGIN_WEIGHTS`; rho is uniform on [0.05, 0.2] and delta on
    [0.3, 0.7].
    """
    if 24 % slots:
        raise ValueError(f"slots must divide 24 hours, got {slots}")
    rng = np.random.default_rng(seed)
    per = 24 // slots
    mean_load = HOURLY_LOAD.reshape(slots, per).mean(axis=1)
    login = LOGIN_WEIGHTS.reshape(slots, per).sum(axis=1)
    login = login / login.sum()
    profiles = []
    for j in range(followers):
        load = mean_load * rng.uniform(0.7, 1.3, size=slots)
        profiles.append(
            {
                "id": f"u{j:05d}",
                "sigma": int(rng.choice(slots, p=login)),
                "rho": float(rng.uniform(0.05, 0.2)),
                "delta": float(rng.uniform(0.3, 0.7)),
                "gamma": 1.0,
                "competitor_load": [float(v) for v in load],
            }
        )
    return {
        "slots": slots,
        "budget": budget,
        "follower_survival_family": follower_survival_family,
        "cluster_survival_family": cluster_survival_family,
        "follower_survival_p": follower_survival_p,
        "cluster_survival_p": cluster_survival_p,
        "cluster_survival_shifted": True,
        "followers": profiles,
    }


def write_trace(path, events) -> None:
    with Path(path).open("w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def write_graph(path, edges) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["follower", "followee"])
        writer.writerows(edges)


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
