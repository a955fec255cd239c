import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage

from groupsfa.errors import InputError
from groupsfa.grouping import (
    GroupAssignment,
    best_label_permutation,
    hac_cluster,
)

from oracles import (
    best_label_permutation_brute,
    brute_force_agglomerate,
    brute_force_cut,
    ward_cost_from_points,
)


def test_k_equals_n_gives_singletons():
    X = np.random.default_rng(0).normal(size=(7, 3))
    a = hac_cluster(X).cut(7)
    assert a.K == 7
    np.testing.assert_array_equal(a.membership, np.arange(1, 8))


def test_k_one_merges_everything():
    X = np.random.default_rng(1).normal(size=(6, 2))
    a = hac_cluster(X).cut(1)
    np.testing.assert_array_equal(a.membership, np.ones(6, dtype=int))


def test_two_blobs_recovered_and_history_matches_oracle():
    rng = np.random.default_rng(2)
    X = np.vstack([rng.normal(0, 0.2, size=(3, 2)),
                   rng.normal(10, 0.2, size=(3, 2))])
    hist = hac_cluster(X)
    a = hist.cut(2)
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
    hist = hac_cluster(X)
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


def _assert_matches_oracle(X):
    n = len(X)
    hist = hac_cluster(X)
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
    duplicates = 0
    for X in _grid_inputs():
        duplicates += len(np.unique(X, axis=0)) < len(X)
        _assert_matches_oracle(X)
    assert duplicates > 100


def test_rounding_can_split_an_exact_tie():
    # the costs of (0, 3) and (1, 3) are both exactly 4/3 at the fourth
    # merge; a cost recurrence rounds (0, 3) to 1.3333333333333335 and
    # merges (1, 3) first, where costs from centroids keep the tie
    _assert_matches_oracle(np.array(
        [[0, 1], [2, 1], [0, 2], [1, 2], [0, 2], [1, 2]], dtype=float
    ))


# Inputs on which a merge depends on an earlier merge that it ties with
# exactly and precedes by id pair, so a plain sort of the merges by
# (cost, id pair) would put it before the merge that built its cluster.
_DEPENDENT_TIES = [
    [[0, 2, 1], [1, 1, 1], [1, 1, 2], [1, 1, 0]],
    [[2, 0], [0, 1], [2, 1], [2, 2], [2, 1], [1, 0], [1, 1], [2, 0]],
    [[1, 1, 0], [0, 0, 1], [1, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
]

# Inputs with an exact tie between two costs whose centroids are inexact
# (thirds): a squared distance summed in another order than the oracle's
# dot product (``einsum``, or a plain sum of squares) splits the tie.
_ROUNDING_TIES = [
    [[0, 1, 2], [1, 1, 2], [2, 0, 2], [2, 2, 0], [1, 1, 0], [2, 2, 0], [0, 0, 1], [0, 2, 0]],
    [[1, 1, 1], [0, 2, 0], [2, 1, 1], [1, 2, 0], [1, 0, 0], [0, 0, 0], [1, 0, 0], [2, 0, 2]],
    [[0, 0, 0], [1, 1, 2], [0, 1, 1], [0, 1, 1], [1, 1, 0], [1, 1, 2], [0, 1, 2], [0, 1, 0],
     [0, 2, 1]],
]


def test_harder_grid_mismatches_are_last_bit_ties():
    """1,200 integer grids with n in 3..9 and d in 1..3, and the inputs above.

    Where the merge lists differ from the oracle's, the first differing
    merge must lose to the oracle's pair by a last-bit difference of the
    oracle's own costs, recomputed from the member points of the clusters
    both runs share at that step: an exact tie there must go by id pair.
    """
    rng = np.random.default_rng(300)
    inputs = [np.array(X, dtype=float) for X in _DEPENDENT_TIES + _ROUNDING_TIES] + [
        rng.integers(0, 3, size=(int(rng.integers(3, 10)), int(rng.integers(1, 4)))).astype(float)
        for _ in range(1200)
    ]
    mismatches = 0
    for X in inputs:
        members = {i: [i] for i in range(len(X))}
        merges = hac_cluster(X).merges
        for (a, b, cost), (oa, ob, ocost) in zip(merges, brute_force_agglomerate(X)):
            if (a, b) != (oa, ob):
                mismatches += 1
                mine = ward_cost_from_points(X[members[a]], X[members[b]])
                assert ocost < mine <= ocost + 4 * np.spacing(ocost), X.tolist()
                break
            assert cost == pytest.approx(ocost, rel=1e-12, abs=1e-12)
            members[oa] += members.pop(ob)
    assert mismatches <= len(inputs) // 100


def _first_occurrence_labels(labels):
    """Relabel a partition 1, 2, ... in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(1, len(first) + 1)
    return rank[inverse]


def test_large_n_costs_and_cuts_match_scipy_ward():
    # scipy's Ward height h relates to the merge cost by cost = h^2 / 2
    X = np.random.default_rng(11).normal(size=(400, 3))
    hist = hac_cluster(X)
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


def _traced_peak(X):
    tracemalloc.start()
    try:
        hac_cluster(X)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cost_memory_grows_linearly_in_n():
    # an N x N cost matrix alone takes 8 N^2 bytes (8 MB at N=1000) and
    # grows 16-fold when N grows 4-fold
    rng = np.random.default_rng(12)
    small = _traced_peak(rng.normal(size=(1000, 4)))
    large = _traced_peak(rng.normal(size=(4000, 4)))
    assert small < 1_000_000
    assert large < 6 * small


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    X = np.random.default_rng(13).normal(size=(6, 2))
    X[4, 1] = bad
    with pytest.raises(InputError, match="finite"):
        hac_cluster(X)


@pytest.mark.parametrize("shape", [(4,), (4, 0), (2, 2, 2)])
def test_features_must_be_a_matrix_with_columns(shape):
    # with no columns every cost is 0, and a merged row could not be
    # told from a live one by its centroid
    with pytest.raises(InputError, match=r"thetas must be \(N, d\) with d >= 1"):
        hac_cluster(np.zeros(shape))


@pytest.mark.parametrize("X, where", [
    # squared distances beyond the double range from the first chain step
    ([[0.0], [1e200], [2e200], [3.0]], "merge 2 of 3"),
    # the first merge is finite, the cost of the second is not
    ([[0.0], [0.0], [1.4e154]], "merge 2 of 2"),
])
def test_overflowing_ward_costs_rejected(X, where):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"Ward costs overflow.*{where}"):
            hac_cluster(X)


def test_costs_near_the_double_range_stay_exact():
    # 2/3 * (1.3e154)^2 is finite; a cost recurrence overflowed on it
    X = [[0.0], [0.0], [1.3e154]]
    merges = hac_cluster(X).merges
    assert merges == [(0, 1, 0.0), (0, 2, 1.1266666666666664e+308)]
    assert merges == brute_force_agglomerate(X)


def test_history_cut_consistent_with_direct_clustering():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 4))
    hist = hac_cluster(X)
    for K in range(1, 21):
        direct = hac_cluster(X).cut(K)
        np.testing.assert_array_equal(hist.cut(K).membership, direct.membership)


def test_membership_invariant_under_positive_rescaling():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(15, 3))
    for K in (2, 3, 4):
        a = hac_cluster(X).cut(K)
        b = hac_cluster(7.3 * X).cut(K)
        np.testing.assert_array_equal(a.membership, b.membership)


def test_k_out_of_range():
    X = np.random.default_rng(5).normal(size=(4, 2))
    history = hac_cluster(X)
    with pytest.raises(InputError, match="K=0 outside 1..4"):
        history.cut(0)
    with pytest.raises(InputError, match="K=5 outside 1..4"):
        history.cut(5)


def _assignment(labels):
    labels = np.asarray(labels, dtype=int)
    return GroupAssignment(K=labels.max(), membership=labels)


def classification_error(assignment, truth):
    """Mismatched share of firms under the best label permutation."""
    return best_label_permutation(assignment, truth)[1] / assignment.N


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


def _random_partition(rng, n, k):
    """n labels that use each of 1..k at least once."""
    labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)])
    return _assignment(rng.permutation(labels))


def test_best_label_permutation_equals_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(400):
        ka, kb = (int(k) for k in rng.integers(1, 7, size=2))
        n = int(rng.integers(max(ka, kb), 3 * max(ka, kb) + 2))
        a, b = _random_partition(rng, n, ka), _random_partition(rng, n, kb)
        assert best_label_permutation(a, b) == best_label_permutation_brute(a, b)


def test_best_label_permutation_ties_take_the_first_permutation():
    # every permutation ties on these: the identity is the first
    a = _assignment([1, 2, 3] * 3)
    b = _assignment([1] * 3 + [2] * 3 + [3] * 3)
    assert best_label_permutation(a, b) == ((0, 1, 2), 6)
    assert best_label_permutation_brute(a, b) == ((0, 1, 2), 6)
    # balanced blocks crossed with balanced blocks, and padded labels
    rng = np.random.default_rng(12)
    for k in range(2, 7):
        for m in (1, 2):
            base = np.repeat(np.arange(1, k + 1), m)
            for _ in range(20):
                a = _assignment(rng.permutation(base))
                b = _assignment(rng.permutation(base))
                assert best_label_permutation(a, b) == best_label_permutation_brute(a, b)
            coarse = _assignment(np.minimum(base, 2))
            assert best_label_permutation(coarse, _assignment(base)) == (
                best_label_permutation_brute(coarse, _assignment(base))
            )


def test_best_label_permutation_beyond_six_groups():
    rng = np.random.default_rng(13)
    truth = _random_partition(rng, 40, 8)
    planted = rng.permutation(8)
    labels = planted[truth.membership - 1] + 1
    labels[:5] = rng.integers(1, 9, size=5)
    a = _assignment(labels)
    perm, wrong = best_label_permutation(a, truth)
    assert (perm, wrong) == best_label_permutation_brute(a, truth)
    assert wrong <= 5
    assert wrong == int(np.sum(np.array(perm)[a.membership - 1] != truth.membership - 1))
    # 12 groups, labels shuffled without error
    truth = _random_partition(rng, 60, 12)
    shuffle = rng.permutation(12)
    perm, wrong = best_label_permutation(_assignment(shuffle[truth.membership - 1] + 1), truth)
    assert wrong == 0 and all(perm[shuffle[j]] == j for j in range(12))


def test_classification_error_size_mismatch():
    with pytest.raises(InputError):
        classification_error(_assignment([1, 2]), _assignment([1, 2, 2]))


def test_group_assignment_validates_partition():
    with pytest.raises(InputError):
        GroupAssignment(K=3, membership=np.array([1, 1, 2, 2]))  # empty group 3


def test_group_assignment_rejects_zero_groups():
    # once a bare IndexError
    with pytest.raises(InputError, match=r"do not form 1\.\.0"):
        GroupAssignment(K=0, membership=[])
