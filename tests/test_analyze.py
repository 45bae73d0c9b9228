"""Timeline reconstruction, cluster statistics, randomization tests,
inter-event times and the power-law exponent."""

import math
from fractions import Fraction

import numpy as np
import pytest

from feedsched import (
    ActivityTrace,
    ClusterMember,
    ClusterRecord,
    ClusterTally,
    Event,
    FollowGraph,
    TimelinePost,
    difference_statistic,
    extract_clusters,
    interevent_times,
    permutation_test,
    powerlaw_alpha,
    reaction_counts,
    reaction_prob_by_size,
    reaction_prob_by_size_position,
    reconstruct_timeline,
)
from feedsched.analyze import OVERFLOW_BUCKET, Clusters, _keyed, _tally
from feedsched.formats import load_trace
from feedsched.model import _left_sum


def record(author, flags):
    members = tuple(ClusterMember(k + 1, f) for k, f in enumerate(flags))
    return ClusterRecord(author, len(flags), members)


def shuffle_permutation_pvalue(counts, i, j, permutations, seed):
    """Reference implementation that literally shuffles reaction labels."""
    (ri, ti), (rj, tj) = counts[i], counts[j]
    labels = np.zeros(ti + tj, dtype=bool)
    labels[: ri + rj] = True
    rng = np.random.default_rng(seed)
    t_obs = ri / ti - rj / tj
    hits = 0
    for _ in range(permutations):
        rng.shuffle(labels)
        a = int(labels[:ti].sum())
        t_perm = a / ti - (ri + rj - a) / tj
        hits += t_perm >= t_obs
    return (1 + hits) / (1 + permutations)


class TestReconstructTimeline:
    def test_following_nobody_gives_empty_timeline(self):
        graph = FollowGraph([("x", "u")])  # u is known but follows nobody
        assert reconstruct_timeline("u", graph, ActivityTrace([])) == ()

    def test_newest_first(self):
        graph = FollowGraph([("u", "a"), ("u", "b")])
        trace = ActivityTrace([Event("a", 10, "post"), Event("b", 20, "post")])
        timeline = reconstruct_timeline("u", graph, trace)
        assert [(p.ts, p.author) for p in timeline] == [(20, "b"), (10, "a")]

    def test_equal_timestamps_order_by_author(self):
        graph = FollowGraph([("u", "b"), ("u", "a")])
        trace = ActivityTrace([Event("b", 10, "post"), Event("a", 10, "post")])
        timeline = reconstruct_timeline("u", graph, trace)
        assert [p.author for p in timeline] == ["a", "b"]

    def test_unknown_user_rejected(self):
        with pytest.raises(ValueError, match="unknown user"):
            reconstruct_timeline("ghost", FollowGraph([("a", "b")]), ActivityTrace([]))

    def test_owner_reactions_attach_to_latest_prior_post(self):
        graph = FollowGraph([("u", "a"), ("u", "b")])
        trace = ActivityTrace(
            [
                Event("a", 10, "post"),
                Event("a", 30, "post"),
                Event("b", 40, "post"),
                Event("u", 35, "retweet", "a"),  # attaches to a@30
            ]
        )
        timeline = reconstruct_timeline("u", graph, trace)
        reacted = [(p.ts, p.author) for p in timeline if p.reacted]
        assert reacted == [(30, "a")]


class TestExtractClusters:
    def test_alternating_authors(self):
        graph = FollowGraph([("u", "p"), ("u", "q")])
        trace = ActivityTrace(
            [
                Event("p", 40, "post"),
                Event("q", 30, "post"),
                Event("q", 20, "post"),
                Event("p", 10, "post"),
            ]
        )
        clusters = extract_clusters(reconstruct_timeline("u", graph, trace))
        assert [c.size for c in clusters] == [1, 2, 1]
        assert [c.author for c in clusters] == ["p", "q", "p"]

    def test_empty_timeline(self):
        assert extract_clusters(()) == ()

    def test_single_author_run_positions(self):
        graph = FollowGraph([("u", "p")])
        trace = ActivityTrace([Event("p", t, "post") for t in (50, 40, 30, 20, 10)])
        (cluster,) = extract_clusters(reconstruct_timeline("u", graph, trace))
        assert cluster.size == 5
        assert [m.position for m in cluster.members] == [1, 2, 3, 4, 5]

    def test_partition_property(self):
        rng = np.random.default_rng(61)
        graph = FollowGraph([("u", a) for a in "abcd"])
        for _ in range(20):
            n = int(rng.integers(0, 40))
            events = [
                Event("abcd"[rng.integers(0, 4)], int(ts), "post")
                for ts in rng.choice(10000, size=n, replace=False)
            ]
            timeline = reconstruct_timeline("u", graph, ActivityTrace(events))
            clusters = extract_clusters(timeline)
            assert sum(c.size for c in clusters) == len(timeline)
            flattened = [
                (c.author, m.position) for c in clusters for m in c.members
            ]
            assert [a for a, _ in flattened] == [p.author for p in timeline]


def reference_timeline(user, graph, trace):
    """Timelines as a tuple sort over one object per post: newest first, equal
    timestamps by author, then ingestion order. A reaction attaches to its
    target's latest event at or before it, found by a plain scan."""
    followees = graph.followees_of(user)
    reacted = set()
    for ev in trace.events_by_user(user):
        if ev.is_reaction and ev.target_author in followees:
            prior = [
                k for k, t in enumerate(trace.events_by_user(ev.target_author)) if t.ts <= ev.ts
            ]
            if prior:
                reacted.add((ev.target_author, prior[-1]))
    entries = [
        (ev.ts, a, idx, ev.kind)
        for a in followees
        for idx, ev in enumerate(trace.events_by_user(a))
    ]
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return tuple(
        TimelinePost(ts, author, kind, (author, idx) in reacted)
        for ts, author, idx, kind in entries
    )


def reference_clusters(timeline):
    """Maximal same-author runs, one `ClusterRecord` object per run."""
    runs = []
    for post in timeline:
        if runs and post.author == runs[-1][-1].author:
            runs[-1].append(post)
        else:
            runs.append([post])
    return tuple(
        ClusterRecord(
            run[0].author,
            len(run),
            tuple(ClusterMember(k + 1, post.reacted) for k, post in enumerate(run)),
        )
        for run in runs
    )


def reference_tally(records):
    """Per (size bucket, position): (reacted, total), one member at a time."""
    tally = {}
    for record in records:
        bucket = min(record.size, 11)
        for member in record.members:
            r, t = tally.get((bucket, member.position), (0, 0))
            tally[(bucket, member.position)] = (r + member.reacted, t + 1)
    return tally


def random_trace(rng):
    """A small random trace and follow graph. Timestamps collide across
    authors, some sit at the ends of the int64 range, reactions may come
    before any target event or target a user their author does not follow,
    and some users follow nobody."""
    users = list("abcdefu")
    ends = [-(2**63), 2**63 - 1]
    events = []
    for user in users:
        heavy = user == "a"  # one prolific author makes runs above ten posts
        for _ in range(int(rng.integers(0, 60 if heavy else 12))):
            ts = int(rng.choice(ends)) if rng.random() < 0.05 else int(rng.integers(0, 40))
            if heavy or rng.random() < 0.6:
                events.append(Event(user, ts, "post"))
            else:
                kind = "retweet" if rng.random() < 0.5 else "reply"
                events.append(Event(user, ts, kind, str(rng.choice(users))))
    edges = [
        (f, g) for f in users[2:] for g in users if f != g and rng.random() < 0.5
    ]
    edges.append(("u", "a"))
    edges.append(("f", "b"))
    return ActivityTrace(events), FollowGraph(edges)


class TestColumnarAgainstObjectReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_timelines_clusters_and_tallies_agree(self, seed):
        trace, graph = random_trace(np.random.default_rng(seed))
        clusters, records = [], []
        for user in graph.users():
            timeline = reconstruct_timeline(user, graph, trace)
            expected = reference_timeline(user, graph, trace)
            assert timeline == expected
            assert len(timeline) == len(expected)
            assert extract_clusters(timeline) == reference_clusters(expected)
            assert extract_clusters(expected) == reference_clusters(expected)
            clusters.append(extract_clusters(timeline))
            records.extend(reference_clusters(expected))
        tally = reference_tally(records)
        by_bucket = {}
        for (bucket, _), (r, t) in tally.items():
            r0, t0 = by_bucket.get(bucket, (0, 0))
            by_bucket[bucket] = (r0 + r, t0 + t)
        by_position = {key: r / t for key, (r, t) in tally.items()}
        for data in (clusters, records):
            counts = reaction_counts(data)
            assert counts == by_bucket
            assert all(type(v) is int for rt in counts.values() for v in rt)
            assert reaction_prob_by_size_position(data) == by_position

    def test_cases_are_covered(self):
        """The random traces reach what the agreement test is meant to cover."""
        seen = set()
        for seed in range(40):
            trace, graph = random_trace(np.random.default_rng(seed))
            for user in graph.users():
                timeline = reconstruct_timeline(user, graph, trace)
                seen.add("empty" if not len(timeline) else "posts")
                seen.update("reacted" for p in timeline if p.reacted)
                seen.update("min ts" for p in timeline if p.ts == -(2**63))
                seen.update("max ts" for p in timeline if p.ts == 2**63 - 1)
                seen.update("overflow" for c in extract_clusters(timeline) if c.size > 10)
                stamps = [(p.ts, p.author) for p in timeline]
                if len({ts for ts, _ in stamps}) < len(set(stamps)):
                    seen.add("tie across authors")
                for ev in trace.events_by_user(user):
                    if ev.is_reaction and ev.target_author not in graph.followees_of(user):
                        seen.add("non-followee reaction")
                    elif ev.is_reaction and ev.ts < min(
                        (t.ts for t in trace.events_by_user(ev.target_author)), default=ev.ts + 1
                    ):
                        seen.add("reaction before any target event")
        assert seen == {
            "empty", "posts", "reacted", "min ts", "max ts", "overflow",
            "tie across authors", "non-followee reaction", "reaction before any target event",
        }


def random_clusters(rng, count, largest):
    """`count` clusters of sizes 1..largest with random reacted flags."""
    sizes = rng.integers(1, largest + 1, size=count)
    code = rng.integers(0, 3, size=count)
    reacted = rng.random(int(sizes.sum())) < 0.3
    return Clusters(("a", "b", "c"), code, sizes, reacted)


class TestClusterTally:
    """Counts added up one user at a time equal those of every user's clusters
    taken together, key by key."""

    @staticmethod
    def assert_folds(users):
        tally = ClusterTally()
        for clusters in users:
            tally.add(clusters)
        pooled = _tally(users)
        assert np.array_equal(tally.table, pooled)
        assert _keyed(tally) == _keyed(users)
        assert reaction_counts(tally) == reaction_counts(users)
        assert reaction_prob_by_size_position(tally) == reaction_prob_by_size_position(users)
        assert all(type(v) is int for rt in reaction_counts(tally).values() for v in rt)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_clusters(self, seed):
        rng = np.random.default_rng(seed)
        users = [random_clusters(rng, int(rng.integers(0, 30)), 8) for _ in range(6)]
        self.assert_folds(users)

    def test_clusters_past_the_overflow_bucket(self):
        rng = np.random.default_rng(3)
        # The longest cluster comes last, so the table grows after it is made.
        users = [random_clusters(rng, 20, 4), random_clusters(rng, 5, 3 * OVERFLOW_BUCKET)]
        users.append(Clusters(("a",), np.zeros(1, int), np.array([44]), np.ones(44, bool)))
        self.assert_folds(users)
        assert max(k for _, k in _keyed(users)) == 4 * OVERFLOW_BUCKET

    def test_users_with_empty_timelines(self):
        rng = np.random.default_rng(4)
        users = [extract_clusters(()), random_clusters(rng, 10, 12), extract_clusters(())]
        self.assert_folds(users)
        self.assert_folds(users[:1])
        assert reaction_counts(ClusterTally()) == {}

    def test_one_user(self):
        self.assert_folds([random_clusters(np.random.default_rng(5), 40, 14)])

    def test_a_list_of_cluster_records(self):
        rng = np.random.default_rng(6)
        records = [record("a", rng.random(int(rng.integers(1, 15))) < 0.4) for _ in range(30)]
        tally = ClusterTally()
        tally.add(records[:12])
        tally.add(records[12:])
        assert _keyed(tally) == reference_tally(records) == _keyed(records)
        assert reaction_counts(tally) == reaction_counts(records)
        assert reaction_prob_by_size_position(tally) == reaction_prob_by_size_position(records)
        assert reaction_prob_by_size(tally) == reaction_prob_by_size(records)

    def test_users_of_a_trace(self):
        trace, graph = random_trace(np.random.default_rng(7))
        users = [extract_clusters(reconstruct_timeline(u, graph, trace)) for u in graph.users()]
        self.assert_folds(users)


class TestColumnarSequences:
    def test_views_index_and_compare(self):
        graph = FollowGraph([("u", "p"), ("u", "q")])
        trace = ActivityTrace(
            [Event("p", 40, "post"), Event("q", 30, "reply", "p"), Event("p", 10, "post"),
             Event("u", 45, "retweet", "p")]
        )
        timeline = reconstruct_timeline("u", graph, trace)
        posts = (
            TimelinePost(40, "p", "post", True),
            TimelinePost(30, "q", "reply", False),
            TimelinePost(10, "p", "post", False),
        )
        assert timeline == posts and timeline[-1] == posts[-1]
        assert list(timeline) == list(posts)
        with pytest.raises(IndexError):
            timeline[3]
        clusters = extract_clusters(timeline)
        assert len(clusters) == 3 and clusters[0] == record("p", [True])
        assert clusters != posts and timeline != list(posts)

    def test_columns_are_read_only(self):
        graph = FollowGraph([("u", "p")])
        trace = ActivityTrace([Event("p", 1, "post"), Event("p", 2, "post")])
        timeline = reconstruct_timeline("u", graph, trace)
        clusters = extract_clusters(timeline)
        for column in (timeline.ts, timeline.code, timeline.reacted, clusters.sizes):
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_zero_size_record_rejected(self):
        with pytest.raises(ValueError, match="sizes start at 1"):
            reaction_counts([ClusterRecord("a", 0, ())])


class TestReactionProbabilities:
    def test_reference_counts_rates(self, reference_counts):
        probs = reaction_prob_by_size(reference_counts)
        assert probs[1] == pytest.approx(0.0018845, abs=1e-7)
        assert probs[5] == pytest.approx(0.0009990, abs=1e-7)
        assert probs[1] == float(Fraction(15897, 8435832))

    def test_monotone_decrease_over_small_sizes(self, reference_counts):
        probs = reaction_prob_by_size(reference_counts)
        assert probs[1] > probs[2] > probs[3]

    def test_all_reacted(self):
        records = [record("a", [True, True]), record("b", [True])]
        assert reaction_prob_by_size(records) == {1: 1.0, 2: 1.0}

    def test_counts_from_records(self):
        records = [record("a", [True, False]), record("b", [False]), record("a", [False])]
        assert reaction_counts(records) == {1: (0, 2), 2: (1, 2)}

    def test_oversize_clusters_share_overflow_bucket(self):
        records = [record("a", [False] * 12), record("b", [True] * 11)]
        assert reaction_counts(records) == {11: (11, 23)}

    def test_by_size_and_position(self):
        records = [
            record("a", [True, False]),
            record("a", [True, False]),
            record("b", [False, False, False]),
            record("b", [True, False, False]),
        ]
        table = reaction_prob_by_size_position(records)
        assert table[(2, 1)] == 1.0
        assert table[(2, 2)] == 0.0
        assert table[(3, 1)] == 0.5
        assert table[(2, 1)] > table[(3, 1)]

    def test_reactions_only_at_top_position(self):
        records = [record("a", [True, False, False]), record("b", [True, False])]
        table = reaction_prob_by_size_position(records)
        for (size, position), prob in table.items():
            assert prob == (1.0 if position == 1 else 0.0)

    def test_empty_input(self):
        assert reaction_prob_by_size_position([]) == {}
        assert reaction_prob_by_size([]) == {}


class TestDifferenceStatistic:
    def test_reference_cell_values(self, reference_counts):
        exact = float(
            Fraction(15897, 8435832) - Fraction(2756, 1819014)
        )
        assert difference_statistic(reference_counts, 1, 2) == pytest.approx(exact)
        assert difference_statistic(reference_counts, 1, 2) == pytest.approx(0.0004, abs=5e-5)
        assert difference_statistic(reference_counts, 1, 3) == pytest.approx(0.0007, abs=5e-5)

    def test_same_bucket_is_zero(self, reference_counts):
        assert difference_statistic(reference_counts, 3, 3) == 0.0

    def test_empty_bucket_named_in_error(self, reference_counts):
        with pytest.raises(ValueError, match="bucket 12"):
            difference_statistic(reference_counts, 1, 12)

    def test_accepts_records(self):
        records = [record("a", [True]), record("b", [False, False])]
        assert difference_statistic(records, 1, 2) == pytest.approx(1.0)


class TestPermutationTest:
    def test_true_null_gives_mid_range_pvalue(self):
        counts = {1: (50, 10000), 2: (50, 10000)}
        result = permutation_test(counts, 1, 2, permutations=1000, seed=17)
        assert result.t_obs == 0.0
        assert 0.3 <= result.p_value <= 0.7

    def test_significant_cell(self, reference_counts):
        result = permutation_test(reference_counts, 1, 2, permutations=1000, seed=0)
        assert result.p_value < 0.05

    def test_insignificant_cell(self, reference_counts):
        result = permutation_test(reference_counts, 3, 4, permutations=1000, seed=0)
        assert result.p_value > 0.05

    def test_deterministic_per_seed(self, reference_counts):
        a = permutation_test(reference_counts, 2, 3, permutations=500, seed=9)
        b = permutation_test(reference_counts, 2, 3, permutations=500, seed=9)
        assert a == b

    def test_permutation_count_validated(self, reference_counts):
        with pytest.raises(ValueError, match="permutations"):
            permutation_test(reference_counts, 1, 2, permutations=0)

    def test_add_one_estimator_bounds(self, reference_counts):
        result = permutation_test(reference_counts, 1, 2, permutations=1000, seed=0)
        assert result.p_value >= 1 / 1001
        assert result.p_value <= 1.0

    def test_label_symmetry(self):
        counts = {1: (40, 800), 2: (30, 700)}
        permutations = 1000
        p_forward = permutation_test(counts, 1, 2, permutations, seed=3).p_value
        p_reverse = permutation_test(counts, 2, 1, permutations, seed=3).p_value
        assert p_forward + p_reverse >= 1 - 2 / permutations

    def test_matches_literal_label_shuffle(self):
        # the hypergeometric draw is the exact distribution of a label shuffle;
        # both Monte Carlo estimates must agree on a mid-range p-value
        counts = {1: (30, 600), 2: (25, 500)}
        p_fast = permutation_test(counts, 1, 2, permutations=2000, seed=21).p_value
        p_ref = shuffle_permutation_pvalue(counts, 1, 2, permutations=2000, seed=22)
        assert p_fast == pytest.approx(p_ref, abs=0.08)


class TestInterEventTimes:
    def test_hour_gaps(self):
        events = [Event("u", h * 3600, "post") for h in (0, 7, 17)]
        assert interevent_times(events) == pytest.approx([7.0, 10.0])

    def test_single_event_rejected(self):
        with pytest.raises(ValueError, match="two events"):
            interevent_times([Event("u", 0, "post")])

    def test_zero_gaps_dropped(self):
        events = [Event("u", 0, "post"), Event("u", 0, "post"), Event("u", 3600, "post")]
        assert interevent_times(events) == [1.0]

    @pytest.mark.parametrize("seed", range(10))
    def test_a_trace_gives_every_users_gaps_in_turn(self, seed):
        trace, _ = random_trace(np.random.default_rng(seed))
        expected = [
            tau for user in trace.users() if len(trace.timestamps(user)) >= 2
            for tau in interevent_times(trace.events_by_user(user))
        ]
        assert interevent_times(trace) == expected

    def test_no_gap_crosses_users(self):
        trace = ActivityTrace([Event("a", 0, "post"), Event("b", 3600, "post")])
        assert interevent_times(trace) == []
        assert interevent_times(ActivityTrace([])) == []


def fold(values):
    """Left-to-right addition, one term at a time."""
    total = 0
    for value in values:
        total += value
    return total


class TestLeftToRightSum:
    """Python 3.12's `sum` adds floats with compensation; the reported sums add
    left to right, as `sum` did before, so their bits do not depend on the
    interpreter."""

    def test_no_compensation(self):
        values = [1.0, 1e100, 1.0, -1e100]
        assert math.fsum(values) == 2.0
        assert _left_sum(values) == fold(values) == 0.0
        assert _left_sum([]) == 0 and _left_sum(iter([0.5, 0.25])) == 0.75

    def test_powerlaw_alpha_folds_the_logs(self, data_dir):
        taus = interevent_times(load_trace(data_dir / "pop_small.trace.jsonl"))
        logs = [math.log(t / 1.0) for t in taus if t >= 1.0]
        assert powerlaw_alpha(taus, 1.0) == 1 + len(logs) / fold(logs)


class TestPowerlawAlpha:
    def test_closed_form_at_constant_ratio(self):
        taus = [math.e] * 50
        assert powerlaw_alpha(taus, tau_min=1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("tau_min", [0.0, -1.0, float("nan"), float("inf")])
    def test_cutoff_must_be_finite_and_positive(self, tau_min):
        with pytest.raises(ValueError, match="tau_min"):
            powerlaw_alpha([math.e] * 50, tau_min=tau_min)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            powerlaw_alpha([2.0] * 5, tau_min=1.0)

    def test_samples_below_cutoff_ignored(self):
        taus = [0.5] * 100 + [math.e] * 50
        assert powerlaw_alpha(taus, tau_min=1.0) == pytest.approx(2.0)

    def test_recovers_synthetic_exponent(self):
        rng = np.random.default_rng(63)
        alpha = 1.6
        u = rng.random(20000)
        taus = 1.0 * (1.0 - u) ** (-1.0 / (alpha - 1.0))
        estimate = powerlaw_alpha(taus.tolist(), tau_min=1.0)
        assert estimate == pytest.approx(alpha, abs=0.03)
