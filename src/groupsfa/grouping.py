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

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# Rows of the initial cost matrix computed per difference tensor, which
# bounds that temporary at _COST_BLOCK_ROWS * N * d floats.
_COST_BLOCK_ROWS = 64


@dataclass
class GroupAssignment:
    """A partition of N firms into K nonempty groups labelled 1..K."""

    K: int
    membership: np.ndarray
    sizes: np.ndarray = field(default=None)

    def __post_init__(self):
        self.membership = np.asarray(self.membership, dtype=int)
        labels, counts = np.unique(self.membership, return_counts=True)
        if len(labels) != self.K or labels[0] != 1 or labels[-1] != self.K:
            raise InputError(
                f"membership labels {labels.tolist()} do not form 1..{self.K}"
            )
        if self.sizes is None:
            self.sizes = counts
        self.sizes = np.asarray(self.sizes, dtype=int)
        if not np.array_equal(self.sizes, counts):
            raise InputError("sizes inconsistent with membership")

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
def _agglomerate(thetas):
    """Run the full merge sequence down to one cluster.

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
    X = np.asarray(thetas, dtype=float)
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


def hac_cluster(thetas, K):
    """Cluster firm feature vectors into K groups.

    Returns:
        (GroupAssignment, MergeHistory); the history covers the full merge
        sequence so any other K can be cut from it directly.

    Raises:
        InputError: thetas is not 2-D, holds NaN or inf, its Ward costs
        overflow, or K is outside 1..N.
    """
    X = np.asarray(thetas, dtype=float)
    if X.ndim != 2:
        raise InputError(f"thetas must be (N, d), got shape {X.shape}")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)[:5].tolist()
        raise InputError(f"thetas must be finite; rows {bad} hold NaN or inf")
    n = X.shape[0]
    if not 1 <= K <= n:
        raise InputError(f"K={K} outside 1..{n}")
    history = MergeHistory(n=n, merges=_agglomerate(X))
    return history.cut(K), history


def best_label_permutation(assignment, truth):
    """Label permutation minimizing mismatches, with the mismatch count.

    The returned tuple ``perm`` maps assignment label k to truth label
    perm[k-1] + 1. Matching is brute force over permutations (padding with
    unused labels when the group counts differ), exact for the K <= 6
    regime this pipeline runs in.
    """
    if assignment.N != truth.N:
        raise InputError(
            f"partition sizes differ: {assignment.N} vs {truth.N}"
        )
    if assignment.K > 6 or truth.K > 6:
        raise InputError("permutation matching supports K <= 6 only")
    k_pad = max(assignment.K, truth.K)
    a = assignment.membership - 1
    b = truth.membership - 1
    best_perm, best = None, assignment.N + 1
    for perm in itertools.permutations(range(k_pad)):
        mapped = np.array(perm)[a]
        wrong = int(np.sum(mapped != b))
        if wrong < best:
            best_perm, best = perm, wrong
            if best == 0:
                break
    return best_perm, best


def classification_error(assignment, truth):
    """Smallest fraction of mismatched firms over group label permutations."""
    _, wrong = best_label_permutation(assignment, truth)
    return wrong / assignment.N
