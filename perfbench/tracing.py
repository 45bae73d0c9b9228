"""Spans and counters recorded from outside the program.

`Tracer.install` rebinds public feedsched functions, in the modules that call
them, to thin wrappers: a span wrapper records `(id, parent, op, name, start,
end)` for every call and a counting wrapper only bumps a counter. Because each
name is rebound where it is looked up (for instance both
`feedsched.cli.marginal_allocation` and `feedsched.optimize.marginal_allocation`),
calls made from inside a wrapped function become child spans. `uninstall`
puts every original back.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module under feedsched, attribute, layer). Several bindings of one function
# share a span name, so a call is attributed the same way wherever it is made.
SPANNED = (
    ("cli", "load_trace", "formats"),
    ("cli", "load_graph", "formats"),
    ("cli", "load_json", "formats"),
    ("cli", "instance_from_dict", "formats"),
    ("cli", "instance_to_dict", "formats"),
    ("cli", "dump_json", "formats"),
    ("cli", "build_instance", "estimate"),
    ("estimate", "consumption_depth_mu", "estimate"),
    ("estimate", "aggregate_competitors", "estimate"),
    ("estimate", "estimate_deltas", "estimate"),
    ("optimize", "attention_total", "objective"),
    ("objective", "attention_potential", "objective"),
    ("cli", "attention_potential", "objective"),
    ("cli", "heatmap", "objective"),
    ("cli", "timeline_view", "objective"),
    ("cli", "marginal_allocation", "optimize"),
    ("optimize", "marginal_allocation", "optimize"),
    ("cli", "brute_force", "optimize"),
    ("cli", "multistart", "optimize"),
    ("cli", "simulate", "simulate"),
    ("cli", "rounded_instance", "simulate"),
    ("cli", "reconstruct_timeline", "analyze"),
    ("cli", "extract_clusters", "analyze"),
    ("cli", "reaction_counts", "analyze"),
    ("cli", "reaction_prob_by_size_position", "analyze"),
    ("cli", "permutation_test", "analyze"),
    ("cli", "interevent_times", "analyze"),
    ("cli", "powerlaw_alpha", "analyze"),
)

# Hot model functions: counted under `model.survival_calls`, never spanned.
COUNTED = (
    ("objective", "follower_survival"),
    ("objective", "cluster_survival"),
    ("simulate", "follower_survival"),
    ("simulate", "cluster_survival"),
)


def _observe(counts: Counter, name: str, args, result) -> None:
    """Work counts read off a traced call's arguments and result."""
    if name == "formats.load_trace":
        counts["formats.trace_events"] += len(result)
    elif name == "estimate.build_instance":
        counts["estimate.followers"] += len(result.followers)
    elif name == "objective.attention_total":
        counts["objective.attention_total_follower_evals"] += len(args[1].followers)
    elif name == "optimize.marginal_allocation":
        counts["optimize.evaluations"] += result.evaluations
        counts["optimize.greedy_evaluations"] += result.evaluations
        counts["optimize.greedy_steps"] += len(result.trajectory)
        counts["optimize.greedy_scans"] += (result.evaluations - 1) // args[0].slots
    elif name == "optimize.brute_force":
        counts["optimize.evaluations"] += result.evaluations
        counts["optimize.brute_schedules"] += result.evaluations
    elif name == "simulate.simulate":
        counts["simulate.follower_days"] += len(args[1].followers) * args[2]
    elif name == "analyze.reconstruct_timeline":
        counts["analyze.timeline_posts"] += len(result)
    elif name == "analyze.extract_clusters":
        counts["analyze.clusters"] += len(result)


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._survival = [0]
        self._originals: list[tuple] = []

    def take_counts(self) -> Counter:
        """Counts since the last call, with `model.survival_calls`; resets them."""
        counts = self.counts
        counts["model.survival_calls"] = self._survival[0]
        self.counts, self._survival[0] = Counter(), 0
        return counts

    def call(self, op: str, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `op.name`."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, op, name, start, end))
        _observe(self.counts, f"{op}.{name}", args, result)
        return result

    def _spanning(self, op: str, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(op, name, fn, *args, **kwargs)

        return wrapper

    def _counting(self, fn):
        cell = self._survival

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for mod_name, attr, op in SPANNED:
            module = importlib.import_module(f"feedsched.{mod_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._spanning(op, attr, original))
        for mod_name, attr in COUNTED:
            module = importlib.import_module(f"feedsched.{mod_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._counting(original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the time covered by its direct children."""
    child = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: (end - start) - child[sid] for sid, _, _, _, start, end in spans}
