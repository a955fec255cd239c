import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage

from groupsfa.errors import InputError
from groupsfa.grouping import (
    GroupAssignment,
    classification_error,
    hac_cluster,
)

from oracles import brute_force_agglomerate, brute_force_cut


def test_k_equals_n_gives_singletons():
    X = np.random.default_rng(0).normal(size=(7, 3))
    a, _ = hac_cluster(X, 7)
    assert a.K == 7
    np.testing.assert_array_equal(a.membership, np.arange(1, 8))


def test_k_one_merges_everything():
    X = np.random.default_rng(1).normal(size=(6, 2))
    a, _ = hac_cluster(X, 1)
    np.testing.assert_array_equal(a.membership, np.ones(6, dtype=int))


def test_two_blobs_recovered_and_history_matches_oracle():
    rng = np.random.default_rng(2)
    X = np.vstack([rng.normal(0, 0.2, size=(3, 2)),
                   rng.normal(10, 0.2, size=(3, 2))])
    a, hist = hac_cluster(X, 2)
    np.testing.assert_array_equal(a.membership, [1, 1, 1, 2, 2, 2])
    oracle = brute_force_agglomerate(X)
    assert len(hist.merges) == len(oracle)
    for (a1, b1, c1), (a2, b2, c2) in zip(hist.merges, oracle):
        assert (a1, b1) == (a2, b2)
        assert c1 == pytest.approx(c2, rel=1e-10)


@pytest.mark.parametrize("trial", range(10))
def test_merge_sequence_matches_brute_force(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(3, 9))
    X = rng.normal(size=(n, int(rng.integers(1, 4))))
    _, hist = hac_cluster(X, 1)
    oracle = brute_force_agglomerate(X)
    for (a1, b1, c1), (a2, b2, c2) in zip(hist.merges, oracle):
        assert (a1, b1) == (a2, b2)
        assert c1 == pytest.approx(c2, rel=1e-9)
    for K in range(1, n + 1):
        np.testing.assert_array_equal(
            hist.cut(K).membership, brute_force_cut(n, oracle, K)
        )


def _grid_inputs():
    """240 inputs with entries in {0, 1, 2}, n in 3..8, d in 1..2.

    They hold exact cost ties and duplicate rows, where only the
    lexicographic tie rule decides the merge order.
    """
    rng = np.random.default_rng(200)
    for _ in range(240):
        n = int(rng.integers(3, 9))
        yield rng.integers(0, 3, size=(n, int(rng.integers(1, 3)))).astype(float)


# The one input of _grid_inputs() where Lance-Williams rounding splits an
# exact tie differently from the oracle; see
# test_rounding_can_split_an_exact_tie.
_ROUNDING_SPLIT = np.array(
    [[0, 1], [2, 1], [0, 2], [1, 2], [0, 2], [1, 2]], dtype=float
)


def _assert_matches_oracle(X):
    n = len(X)
    _, hist = hac_cluster(X, 1)
    oracle = brute_force_agglomerate(X)
    assert [m[:2] for m in hist.merges] == [m[:2] for m in oracle]
    np.testing.assert_allclose(
        [m[2] for m in hist.merges], [m[2] for m in oracle],
        rtol=1e-12, atol=1e-12,
    )
    for K in range(1, n + 1):
        np.testing.assert_array_equal(
            hist.cut(K).membership, brute_force_cut(n, oracle, K)
        )


def test_ties_and_duplicates_follow_the_oracle_tie_rule():
    duplicates = splits = 0
    for X in _grid_inputs():
        duplicates += len(np.unique(X, axis=0)) < len(X)
        if np.array_equal(X, _ROUNDING_SPLIT):
            splits += 1
        else:
            _assert_matches_oracle(X)
    assert duplicates > 100
    assert splits == 1


@pytest.mark.xfail(strict=True, reason=(
    "exact costs of (0, 3) and (1, 3) are both 4/3 at the fourth merge; "
    "the recurrence gives 1.3333333333333335 for (0, 3), so (1, 3) wins"
))
def test_rounding_can_split_an_exact_tie():
    _assert_matches_oracle(_ROUNDING_SPLIT)


def _first_occurrence_labels(labels):
    """Relabel a partition 1, 2, ... in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(1, len(first) + 1)
    return rank[inverse]


def test_large_n_costs_and_cuts_match_scipy_ward():
    # scipy's Ward height h relates to the merge cost by cost = h^2 / 2
    X = np.random.default_rng(11).normal(size=(400, 3))
    _, hist = hac_cluster(X, 1)
    Z = linkage(X, "ward")
    np.testing.assert_allclose(
        np.sort([m[2] for m in hist.merges]), np.sort(Z[:, 2] ** 2 / 2),
        rtol=1e-9,
    )
    for K in range(1, 11):
        scipy_labels = fcluster(Z, K, criterion="maxclust")
        np.testing.assert_array_equal(
            hist.cut(K).membership, _first_occurrence_labels(scipy_labels)
        )


def test_cost_memory_stays_below_three_n_squared_floats():
    # the costs take 8 N^2 bytes; an N x N x d difference tensor would
    # alone take 8 N^2 d
    n, d = 1000, 4
    X = np.random.default_rng(12).normal(size=(n, d))
    tracemalloc.start()
    try:
        hac_cluster(X, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n * n


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    X = np.random.default_rng(13).normal(size=(6, 2))
    X[4, 1] = bad
    with pytest.raises(InputError, match="finite"):
        hac_cluster(X, 2)


@pytest.mark.parametrize("X, where", [
    # squared distances beyond the double range from the start
    ([[0.0], [1e200], [2e200], [3.0]], "initial"),
    # initial costs finite (8.45e307), the Lance-Williams update is not
    ([[0.0], [0.0], [1.3e154]], "merge 2 of 2"),
])
def test_overflowing_ward_costs_rejected(X, where):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"Ward costs overflow.*{where}"):
            hac_cluster(X, 2)


def test_history_cut_consistent_with_direct_clustering():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 4))
    _, hist = hac_cluster(X, 1)
    for K in range(1, 21):
        direct, _ = hac_cluster(X, K)
        np.testing.assert_array_equal(hist.cut(K).membership, direct.membership)


def test_membership_invariant_under_positive_rescaling():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(15, 3))
    for K in (2, 3, 4):
        a, _ = hac_cluster(X, K)
        b, _ = hac_cluster(7.3 * X, K)
        np.testing.assert_array_equal(a.membership, b.membership)


def test_k_out_of_range():
    X = np.random.default_rng(5).normal(size=(4, 2))
    with pytest.raises(InputError):
        hac_cluster(X, 0)
    with pytest.raises(InputError):
        hac_cluster(X, 5)


def _assignment(labels):
    labels = np.asarray(labels, dtype=int)
    return GroupAssignment(K=labels.max(), membership=labels)


def test_classification_error_label_permutation_invariant():
    a = _assignment([1, 1, 2, 2, 3, 3])
    b = _assignment([3, 3, 1, 1, 2, 2])
    assert classification_error(a, b) == 0.0


def test_classification_error_single_swap():
    truth = _assignment([1] * 50 + [2] * 50)
    wrong = np.array([1] * 50 + [2] * 50)
    wrong[0] = 2
    assert classification_error(_assignment(wrong), truth) == pytest.approx(0.01)


def test_classification_error_random_labels_near_half():
    rng = np.random.default_rng(6)
    truth = _assignment([1] * 500 + [2] * 500)
    rand = _assignment(rng.integers(1, 3, size=1000))
    err = classification_error(rand, truth)
    assert err == pytest.approx(0.5, abs=0.05)


def test_classification_error_symmetric_and_zero_iff_equal():
    rng = np.random.default_rng(7)
    a = _assignment(rng.integers(1, 4, size=30))
    b = _assignment(rng.integers(1, 4, size=30))
    assert classification_error(a, b) == pytest.approx(classification_error(b, a))
    assert classification_error(a, a) == 0.0
    if not np.array_equal(a.membership, b.membership):
        # partitions here differ as partitions, not merely by labels
        if classification_error(a, b) == 0.0:
            pytest.skip("random draw produced label-permuted equal partitions")


def test_classification_error_different_group_counts():
    a = _assignment([1, 1, 1, 1])
    b = _assignment([1, 1, 2, 2])
    assert classification_error(a, b) == pytest.approx(0.5)


def test_classification_error_size_mismatch():
    with pytest.raises(InputError):
        classification_error(_assignment([1, 2]), _assignment([1, 2, 2]))


def test_group_assignment_validates_partition():
    with pytest.raises(InputError):
        GroupAssignment(K=3, membership=np.array([1, 1, 2, 2]))  # empty group 3
