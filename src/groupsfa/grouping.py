"""Ward-linkage agglomerative clustering of firm feature vectors (Step 2).

Clusters are merged bottom-up; at each step the pair with the smallest
Ward cost

    d(A, B) = |A||B| / (|A| + |B|) * ||mean_A - mean_B||^2

is merged, ties broken by the lexicographically smallest pair of cluster
ids, where a cluster's id is its smallest member index. Costs are updated
with the Lance-Williams recurrence, and the next merge is found from a
per-cluster nearest-neighbour cache (Muellner 2011, arXiv:1109.2378)
rather than a scan of all pairs: O(N^2) time in the typical case and
8 N^2 bytes of costs. A full merge history is kept so the dendrogram can
be cut at any K without re-clustering. Group labels are assigned 1..K by
ascending smallest member index, which makes runs bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError

# Rows of the initial cost matrix computed per difference tensor, which
# bounds that temporary at _COST_BLOCK_ROWS * N * d floats.
_COST_BLOCK_ROWS = 64


@dataclass
class GroupAssignment:
    """A partition of N firms into K nonempty groups labelled 1..K."""

    K: int
    membership: np.ndarray

    def __post_init__(self):
        self.membership = np.asarray(self.membership, dtype=int)
        labels = np.unique(self.membership)
        if len(labels) != self.K or labels[0] != 1 or labels[-1] != self.K:
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


@np.errstate(over="ignore", invalid="ignore")
def _agglomerate(X):
    """Run the full merge sequence of the (N, d) features X down to one cluster.

    D holds the costs between active cluster slots, symmetric with an inf
    diagonal; slot index equals cluster id (smallest member), and a merged
    slot's row and column are set to inf. Each row caches its minimum
    ``mn[c]`` and first argmin ``nn[c]``. By symmetry, the first row
    attaining the global minimum of ``mn`` holds the lexicographically
    smallest tied pair (a, nn[a]), so picking a merge scans N cached
    minima instead of the N x N matrix. After a merge the Lance-Williams
    costs are written into row and column a; a row adopts a when its new
    cost is lower than the cached minimum, or equal to it with a smaller
    id (Ward's reducibility rules the equality out in exact arithmetic,
    not under rounding), and only row a and the rows whose neighbour was
    a or b are rescanned. This is the generic algorithm of Muellner (2011,
    arXiv:1109.2378): O(N^2) time in the typical case, O(N^3) at worst,
    and 8 N^2 bytes for D, built in row blocks of ``_COST_BLOCK_ROWS``.

    Raises:
        InputError: an initial or merged cost overflows to inf or NaN
        (finite features of magnitude near 1e154 or more).
    """
    n = X.shape[0]
    D = np.empty((n, n))
    for lo in range(0, n, _COST_BLOCK_ROWS):
        diff = X[lo : lo + _COST_BLOCK_ROWS, None, :] - X[None, :, :]
        D[lo : lo + _COST_BLOCK_ROWS] = 0.5 * np.einsum("ijk,ijk->ij", diff, diff)
    if not np.isfinite(D).all():
        raise InputError(
            "Ward costs overflow: the initial squared distances between "
            "feature rows are not finite in double precision"
        )
    np.fill_diagonal(D, np.inf)
    nn = np.argmin(D, axis=1)
    mn = D[np.arange(n), nn]
    sizes = np.ones(n)

    merges = []
    for _ in range(n - 1):
        a = int(np.argmin(mn))
        b = int(nn[a])
        cost = float(mn[a])
        merges.append((a, b, cost))

        # Lance-Williams update of costs against every slot; entries of a,
        # b and merged slots are inf and stay inf
        na, nb = sizes[a], sizes[b]
        dnew = ((na + sizes) * D[a] + (nb + sizes) * D[b] - sizes * cost) / (na + nb + sizes)
        D[a] = dnew
        D[:, a] = dnew
        D[b] = np.inf
        D[:, b] = np.inf
        sizes[a] = na + nb
        nn[b], mn[b] = -1, np.inf  # a merged slot is never stale, never adopts

        stale = np.flatnonzero((nn == a) | (nn == b))  # includes a itself
        adopt = (dnew < mn) | ((dnew == mn) & (a < nn))
        nn[adopt] = a
        mn[adopt] = dnew[adopt]
        nn[stale] = np.argmin(D[stale], axis=1)
        mn[stale] = D[stale, nn[stale]]

    # A cost that overflows in an update stays inf or NaN through later
    # updates until its two clusters merge, so it shows as a merge cost.
    finite = np.isfinite([cost for _, _, cost in merges])
    if not finite.all():
        first = int(np.argmin(finite))
        raise InputError(
            f"Ward costs overflow: merge {first + 1} of {n - 1} has cost "
            f"{merges[first][2]}, beyond double precision"
        )
    return merges


def hac_cluster(thetas):
    """Ward merge history of firm feature vectors, cut at any K by ``cut``.

    Raises:
        InputError: thetas is not 2-D, holds NaN or inf, or its Ward costs
        overflow.
    """
    X = np.asarray(thetas, dtype=float)
    if X.ndim != 2:
        raise InputError(f"thetas must be (N, d), got shape {X.shape}")
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

