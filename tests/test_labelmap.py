import random

import numpy as np
import pytest

from issuetriage import labelmap
from issuetriage.corpus import ObjectiveClass, PriorityClass
from issuetriage.labelmap import (
    canonicalize_label,
    label_features,
    objective_of,
    priority_of,
)

BUG_LABELS = ["bug", "defect", "kind/bug", "type: bug"]
ENHANCEMENT_LABELS = [
    "enhancement", "kind/enhancement", "type: enhancement", "type: improvement",
    "improvement", "feature request", "feature", "kind/feature",
    "type: new feature", "new feature",
]
SUPPORT_LABELS = [
    "help wanted", "status: help wanted", "type: support", "supports",
    "question", "type: question", "kind/question",
    "docs", "documentation", "type: documentation", "kind/documentation",
    "information", "more info needed", "more info required",
    "more-information-needed", "need more info", "needs info",
    "needs more info", "needs-info", "needs-details",
]

HIGH_LABELS = [
    "p0", "priority: p0", "p1", "priority 1", "priority: p1", "priority 2",
    "critical", "criticalpriority", "priority-critical", "critical priority",
    "priority:critical", "priority critical", "priority: critical",
    "priority - critical", "critical-priority", "priority/critical",
    "urgent", "priority/urgent", "priority/blocker", "priority: blocker",
    "important", "priority/important", "priority: major", "highpriority",
    "priority-high", "high priority", "priority:high", "priority high",
    "priority: high", "priority - high", "high-priority", "priority/high",
    "is:priority",
]
LOW_LABELS = [
    "p3", "priority: p3", "priority 4", "priority: minor", "lowpriority",
    "priority-low", "low priority", "priority:low", "priority low",
    "priority: low", "priority - low", "low-priority", "priority/low",
    "is:no-priority",
]

DUPLICATE_CLUSTER = [
    "duplicate", "status/duplicate", "status: duplicate", "status:duplicate",
    "status=duplicate", "status-duplicate", "type:duplicate", "was:duplicate",
    "resolution:duplicate", "resolution/duplicate", "duplicate issue",
    "t-duplicate", "r: duplicate", "closed: duplicate", "kind/duplicate",
    "type: duplicate",
]
WONTFIX_CLUSTER = [
    "won't fix", "wont fix", "wontfix", "wont-fix", "status: won't fix",
    "will not fix", "resolution:won't fix", "status=will-not-fix",
    "closed: won't fix", "state:wont-fix", "status: will not fix",
    "won't-fix", "will-not-fix", "cant-fix", "cantfix", "can't fix",
]


class TestCanonicalize:
    @pytest.mark.parametrize("raw,expected", [
        ("Type: Bug", "type bug"),
        ("wontfix", "wontfix"),
        ("  priority/high ", "priority high"),
        ("priority - critical", "priority critical"),
        ("status=duplicate", "status duplicate"),
        ("A--B//C::D", "a b c d"),
    ])
    def test_examples(self, raw, expected):
        assert canonicalize_label(raw) == expected


class TestObjectiveMap:
    def test_priority_pair_count_is_47(self):
        assert len(HIGH_LABELS) + len(LOW_LABELS) == 47

    @pytest.mark.parametrize("raw", BUG_LABELS)
    def test_every_bug_label(self, raw, maps):
        assert objective_of([raw], maps.objective) is ObjectiveClass.BUG

    @pytest.mark.parametrize("raw", ENHANCEMENT_LABELS)
    def test_every_enhancement_label(self, raw, maps):
        assert objective_of([raw], maps.objective) is ObjectiveClass.ENHANCEMENT

    @pytest.mark.parametrize("raw", SUPPORT_LABELS)
    def test_every_support_label(self, raw, maps):
        assert objective_of([raw], maps.objective) is ObjectiveClass.SUPPORT_DOC

    def test_mono_label_conflict(self, maps):
        assert objective_of(["bug", "feature request"], maps.objective) is None

    def test_no_objective_label(self, maps):
        assert objective_of(["stale"], maps.objective) is None

    def test_same_class_twice_still_resolves(self, maps):
        assert objective_of(["bug", "defect"], maps.objective) is ObjectiveClass.BUG

    def test_case_and_order_invariance(self, maps):
        assert objective_of(["KIND/BUG", "stale"], maps.objective) is ObjectiveClass.BUG
        assert objective_of(["stale", "kind/bug"], maps.objective) is ObjectiveClass.BUG


class TestPriorityMap:
    @pytest.mark.parametrize("raw", HIGH_LABELS)
    def test_every_high_label(self, raw, maps):
        assert priority_of([raw], maps.priority) is PriorityClass.HIGH

    @pytest.mark.parametrize("raw", LOW_LABELS)
    def test_every_low_label(self, raw, maps):
        assert priority_of([raw], maps.priority) is PriorityClass.LOW

    def test_conflict_resolves_high(self, maps):
        assert priority_of(["p0", "low priority"], maps.priority) is PriorityClass.HIGH

    def test_no_priority_label(self, maps):
        assert priority_of(["bug"], maps.priority) is None


class TestClusterTable:
    def test_exactly_66_clusters(self, maps):
        assert len(maps.clusters.representatives) == labelmap.N_CLUSTERS == 66

    @pytest.mark.parametrize("raw", DUPLICATE_CLUSTER)
    def test_duplicate_exemplars(self, raw, maps):
        assert maps.clusters.cluster_of(raw) == "duplicate"

    @pytest.mark.parametrize("raw", WONTFIX_CLUSTER)
    def test_wontfix_exemplars(self, raw, maps):
        assert maps.clusters.cluster_of(raw) == "won't fix"

    def test_every_bundled_member_resolves_to_its_cluster(self, maps):
        # the loader would have raised on cross-cluster duplicates; here we
        # check each canonical member maps back to its own representative
        for key, idx in maps.clusters.lookup.items():
            assert maps.clusters.cluster_of(key) == maps.clusters.representatives[idx]

    def test_unknown_label(self, maps):
        assert maps.clusters.cluster_of("entirely made up label 42") is None


class TestLabelFeatures:
    def test_empty_is_zero_vector(self, maps):
        vec = label_features([], maps.clusters)
        assert vec.shape == (66,)
        assert not vec.any()

    def test_wontfix_single_bit(self, maps):
        vec = label_features(["wontfix"], maps.clusters)
        assert vec.sum() == 1
        assert vec[maps.clusters.representatives.index("won't fix")] == 1

    def test_no_double_count(self, maps):
        vec = label_features(["duplicate", "t-duplicate"], maps.clusters)
        assert vec.sum() == 1
        assert vec[maps.clusters.representatives.index("duplicate")] == 1

    def test_binary_permutation_invariant_monotone(self, maps):
        pool = list(maps.clusters.lookup.keys()) + ["unmapped-one", "unmapped-two"]
        rng = random.Random(5)
        for _ in range(50):
            labels = rng.sample(pool, rng.randint(0, 8))
            vec = label_features(labels, maps.clusters)
            assert set(np.unique(vec)) <= {0, 1}
            shuffled = labels[:]
            rng.shuffle(shuffled)
            assert np.array_equal(label_features(shuffled, maps.clusters), vec)
            grown = label_features(labels + [rng.choice(pool)], maps.clusters)
            assert np.all(grown >= vec)
