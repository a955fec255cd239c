"""Ward-linkage agglomerative clustering of firm feature vectors (Step 2).

Clusters are merged bottom-up; at each step the pair with the smallest
Ward cost

    d(A, B) = |A||B| / (|A| + |B|) * ||mean_A - mean_B||^2

is merged, ties broken by the lexicographically smallest pair of cluster
ids, where a cluster's id is its smallest member index. The merges are
found by a nearest-neighbour chain over cluster centroids and sizes
(Muellner 2011, arXiv:1109.2378), so memory is O(N d) and no N x N cost
matrix is held. The chain keeps the cost rows of its top 8 positions
and patches them after a merge rather than recomputing them. A full
merge history is kept so the dendrogram can be cut at any K without
re-clustering. Group labels are assigned 1..K by ascending smallest
member index, which makes runs bit-reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError


@dataclass
class GroupAssignment:
    """A partition of N firms into K nonempty groups labelled 1..K."""

    K: int
    membership: np.ndarray

    def __post_init__(self):
        self.membership = np.asarray(self.membership, dtype=int)
        labels = np.unique(self.membership)
        if self.K < 1 or len(labels) != self.K or labels[0] != 1 or labels[-1] != self.K:
            raise InputError(
                f"membership labels {labels.tolist()} do not form 1..{self.K}"
            )

    @property
    def N(self):
        return len(self.membership)

    def members(self, k):
        """Firm indices of group k (1-based label), ascending."""
        return np.flatnonzero(self.membership == k)


@dataclass
class MergeHistory:
    """Ordered Ward merges (id_a, id_b, cost) with id_a < id_b, length N-1.

    Ids are smallest member indices; the merged cluster keeps id_a.
    """

    n: int
    merges: list

    def cut(self, K):
        """Partition obtained after the first N-K merges."""
        if not 1 <= K <= self.n:
            raise InputError(f"K={K} outside 1..{self.n}")
        parent = list(range(self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b, _ in self.merges[: self.n - K]:
            parent[find(b)] = find(a)
        roots = [find(i) for i in range(self.n)]
        order = sorted(set(roots))
        label_of = {r: k + 1 for k, r in enumerate(order)}
        membership = np.array([label_of[r] for r in roots])
        return GroupAssignment(K=K, membership=membership)


_HELD_ROWS = 8  # chain positions, from the tip down, that keep their cost rows


def _ward_costs(centroids, sizes, centroid, size, diff=None, weight=None):
    """Ward costs from one cluster (centroid, size) to each row.

    The squared distance is the dot product ``diff @ diff``; ``diff`` and
    ``weight``, when given, are buffers of the rows' shape to write into.
    A row at an inf centroid costs inf.
    """
    diff = np.subtract(centroids, centroid, out=diff)
    cost = np.vecdot(diff, diff)
    weight = np.multiply(sizes, size, out=weight)
    weight /= sizes + size
    cost *= weight
    return cost


@np.errstate(over="ignore", invalid="ignore")
def _agglomerate(X):
    """Run the full merge sequence of the (N, d) features X down to one cluster.

    Nearest-neighbour chain (Murtagh 1983; Muellner 2011, arXiv:1109.2378,
    section 3) on rows of member sums, sizes and centroids, O(N d) memory.
    A merged row is parked at an inf centroid until parked rows outnumber
    a quarter of the live ones and are dropped. A chain step takes the
    tip's Ward cost to every row, the squared distance by the dot product
    of ``diff @ diff``, and moves to the first argmin. Pairs are thus
    ordered strictly by (cost, id pair) with costs symmetric to the bit, so
    the chain cannot cycle; a tip merges with its predecessor when that is
    its nearest neighbour, and the merged cluster keeps the smaller id.

    A tip new to the chain gets its cost row in one vectorised pass. The
    top ``_HELD_ROWS`` (8) chain positions keep their rows, each with the
    number of merges it has seen, so when merges pop the chain back to one
    of them only the merged rows' entries are recomputed, by the same
    arithmetic: the parked row's becomes inf and the kept row's is its one
    new cost. The row is then the one a full pass would give, bit for bit.
    A position further down recomputes its row when the chain returns to
    it, which keeps the held rows at 8 N floats at most, however long the
    chain; so does every position after a compaction, which drops the
    held rows with the parked ones.

    Ward is reducible (a merged cluster is no nearer to a third one than
    the nearer of its parts), so reciprocal nearest neighbours stay so
    until they merge and the chain finds the greedy merges out of order.
    Sorting them by (cost, id_a, id_b), a merge lifted to the key of the
    merges that built its clusters where an exact tie makes that larger,
    replays them in greedy order.

    Raises:
        InputError: a merge cost overflows to inf or NaN (finite features
        of magnitude near 1e154 or more).
    """
    n = X.shape[0]
    ids = np.arange(n)  # cluster id of each row, ascending; -1 once merged
    sums = X.copy()
    centroids = X.copy()
    sizes = np.ones(n)
    diff, weight = np.empty_like(X), np.empty(n)
    found, last = [], {}
    merged = []  # (kept row, parked row) of each merge since the last compaction
    chain = [0]
    held = [None]  # per chain position: (cost row, merges seen) or None
    while len(found) < n - 1:
        live = n - len(found)
        if 4 * (len(ids) - live) > live:
            keep = np.flatnonzero(ids >= 0)
            ids, sums, centroids, sizes = ids[keep], sums[keep], centroids[keep], sizes[keep]
            chain = np.searchsorted(keep, chain).tolist()
            merged, held = [], [None] * len(chain)
            diff, weight = np.empty_like(centroids), np.empty(len(ids))
        tip = chain[-1]
        if held[-1] is None:
            cost = _ward_costs(centroids, sizes, centroids[tip], sizes[tip], diff, weight)
            cost[tip] = np.inf
            if len(held) > _HELD_ROWS:
                held[-1 - _HELD_ROWS] = None
        else:
            cost, seen = held[-1]
            changed = np.array(merged[seen:]).ravel()
            cost[changed] = _ward_costs(
                centroids[changed], sizes[changed], centroids[tip], sizes[tip]
            )
        held[-1] = (cost, len(merged))
        near = int(cost.argmin())
        best = float(cost[near])
        if not math.isfinite(best):
            raise InputError(
                f"Ward costs overflow: merge {len(found) + 1} of {n - 1} has "
                f"cost {best}, beyond double precision"
            )
        if len(chain) < 2 or near != chain[-2]:
            chain.append(near)
            held.append(None)
            continue
        del chain[-2:], held[-2:]
        ra, rb = min(tip, near), max(tip, near)
        a, b = int(ids[ra]), int(ids[rb])
        # a merge sorts no earlier than the merges that built its clusters
        key = max([(best, a, b)] + [found[last[c]][0] for c in (a, b) if c in last])
        last[a] = len(found)
        found.append((key, len(found), a, b, best))
        merged.append((ra, rb))
        sums[ra] += sums[rb]
        sizes[ra] += sizes[rb]
        centroids[ra] = sums[ra] / sizes[ra]
        centroids[rb] = np.inf
        ids[rb] = -1
        if not chain:
            chain.append(ra)
            held.append(None)
    return [(a, b, cost) for *_, a, b, cost in sorted(found)]


def hac_cluster(thetas):
    """Ward merge history of firm feature vectors, cut at any K by ``cut``.

    The merges come from a nearest-neighbour chain on cluster centroids
    (see ``_agglomerate``): O(N d) memory, one vectorised cost pass per
    chain step onto a new tip, and the cost rows of the top 8 chain
    positions kept and patched after a merge.

    Raises:
        InputError: thetas is not 2-D with at least one column, holds NaN
        or inf, or its Ward costs overflow.
    """
    X = np.asarray(thetas, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise InputError(f"thetas must be (N, d) with d >= 1, got shape {X.shape}")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)[:5].tolist()
        raise InputError(f"thetas must be finite; rows {bad} hold NaN or inf")
    return MergeHistory(n=X.shape[0], merges=_agglomerate(X))


def best_label_permutation(assignment, truth):
    """Label permutation minimizing mismatches, with the mismatch count.

    The returned tuple ``perm`` maps assignment label k to truth label
    perm[k-1] + 1. Both partitions are padded with empty labels to one
    count K, and ``perm`` maximizes the agreement sum_k A[k-1, perm[k-1]]
    of the K x K count matrix A (``linear_sum_assignment``, exact for any
    K). Of several optimal permutations the lexicographically first is
    returned: labels are fixed in order, each to the lowest free truth
    label with which the remaining labels can still reach the optimum.
    """
    if assignment.N != truth.N:
        raise InputError(
            f"partition sizes differ: {assignment.N} vs {truth.N}"
        )
    k = max(assignment.K, truth.K)
    agree = np.bincount(
        (assignment.membership - 1) * k + truth.membership - 1, minlength=k * k
    ).reshape(k, k)

    def most(rows, cols):
        sub = agree[np.ix_(rows, cols)]
        r, c = linear_sum_assignment(sub, maximize=True)
        return int(sub[r, c].sum())

    top = most(range(k), range(k))
    perm, free, kept = [], list(range(k)), 0
    for row in range(k):
        for col in free:
            rest = [c for c in free if c != col]
            if kept + agree[row, col] + most(range(row + 1, k), rest) == top:
                break
        perm.append(col)
        free, kept = rest, kept + int(agree[row, col])
    return tuple(perm), assignment.N - top

