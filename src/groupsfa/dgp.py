"""Synthetic panel generators for the six Monte Carlo designs.

Three frontier designs, each with a unique-law (U) and a mixture-law (M)
variant for the level term:

* design 1: two groups that differ in their frontier curves, common noise
  level, one regressor drawn N(1, 1).
* design 2: a common frontier but two noise levels (0.5 and 1.5), one
  regressor drawn N(2, 0.75^2).
* design 3: three groups differing in frontiers and noise, two regressors
  drawn N(1, 0.5^2).

Intercept curves are centered to integrate to zero over [0, 1]; centering
constants are computed by quadrature once per family. Two of the slope
curves diverge at an endpoint of [0, 1], so frontier formulas evaluate on
arguments clamped to [1e-3, 1 - 1e-3].

Every random draw comes from a counter-derived stream keyed by (seed,
design, replication, firm, role): the stream of one firm and role is
exactly ``np.random.default_rng(np.random.SeedSequence(seed,
spawn_key=(design index, rep, firm, role)))``, so any single cell can be
regenerated in isolation and results do not depend on scheduling.
``generate`` seeds all of a panel's streams in one vectorised pass of
numpy's SeedSequence hashing instead of one SeedSequence object per
stream; the draws, and so every generated number, are unchanged.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.integrate import quad

from .errors import InputError, as_integer
from .panel import PanelData

DESIGNS = ("dgp1u", "dgp1m", "dgp2u", "dgp2m", "dgp3u", "dgp3m")

CLAMP_LO = 1e-3
CLAMP_HI = 1.0 - 1e-3

# stream roles per firm
_ROLE_X, _ROLE_V, _ROLE_U, _ROLE_COMPONENT = 0, 1, 2, 3


@dataclass(frozen=True)
class UniqueLaw:
    alpha0: float = 0.5
    sigma_u: float = 1.0

    @property
    def kind(self):
        return "unique"


@dataclass(frozen=True)
class MixtureLaw:
    tau: float = 0.5
    alpha0_1: float = 1.0
    sigma_u_1: float = 0.75
    alpha0_2: float = -1.0
    sigma_u_2: float = 1.25

    @property
    def kind(self):
        return "mixture"


@dataclass
class DgpTruth:
    """Everything needed to score an estimate of a generated panel."""

    design: str
    K: int
    membership: np.ndarray
    sigma_v: np.ndarray
    alpha_funcs: tuple
    beta_funcs: tuple
    law: object
    u: np.ndarray
    component: np.ndarray


def logistic_cdf(s, mu, sigma):
    return 1.0 / (1.0 + np.exp(-(s - mu) / sigma))


def _clamped(f):
    def g(s):
        return f(np.clip(s, CLAMP_LO, CLAMP_HI))

    return g


def centering_constant(f):
    """Integral of f over [0, 1] by adaptive quadrature."""
    probe = np.linspace(0.013, 0.987, 41)
    with np.errstate(all="ignore"):
        vals = np.asarray([f(s) for s in probe], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InputError("integrand is not finite away from the endpoints")
    value, _ = quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=300)
    return float(value)


def _centered(raw):
    c = centering_constant(_clamped(raw))
    clamped = _clamped(raw)

    def g(s):
        return clamped(s) - c

    return g


@lru_cache(maxsize=None)
def _design_curves(base):
    """Clamped, centered frontier closures and noise levels, cached as tuples."""
    if base == 1:
        alphas = (
            _centered(lambda s: 3.0 * logistic_cdf(s, 0.5, 0.1)),
            _centered(
                lambda s: 3.0 * (2 * s - 6 * s ** 2 + 4 * s ** 3 + logistic_cdf(s, 0.7, 0.05))
            ),
        )
        betas = (
            (_clamped(lambda s: 3.0 * (2 * s - 4 * s ** 2 + 2 * s ** 3 + logistic_cdf(s, 0.6, 0.1))),),
            (_clamped(lambda s: 3.0 * (s - 3 * s ** 2 + 2 * s ** 3 + logistic_cdf(s, 0.7, 0.04))),),
        )
        return alphas, betas, (1.0, 1.0), (1.0, 1.0)
    if base == 2:
        alpha = _centered(lambda s: np.log(s) * np.sin(6 * s))
        beta = _clamped(lambda s: 7.0 * np.sin(5 * s) * np.exp(-5 * s))
        return (alpha, alpha), ((beta,), (beta,)), (0.5, 1.5), (2.0, 0.75)
    if base == 3:
        alphas = (
            _centered(lambda s: -1.0 / (1.0 + 3.0 * s)),
            _centered(lambda s: -np.cos(4 * s)),
            _centered(lambda s: 5 * s ** 2 - s + 1.0),
        )
        betas = (
            (_clamped(lambda s: 2 * s ** 3), _clamped(lambda s: np.log(5 * s))),
            (_clamped(lambda s: np.sin(4 * s)), _clamped(lambda s: np.log(s / (1.0 - s)))),
            (
                _clamped(lambda s: np.exp(-s) + np.sin(5 * s)),
                _clamped(lambda s: -5.0 * np.sin(s) * np.cos(5 * s) + 1.0),
            ),
        )
        return alphas, betas, (0.75, 1.25, 1.25), (1.0, 0.5)
    raise InputError(f"unknown design family {base}")


def _parse_design(design):
    d = design.lower()
    if d not in DESIGNS:
        raise InputError(f"unknown design {design!r}; expected one of {DESIGNS}")
    return int(d[3]), d[4]


def design_shape(design):
    """(group count K, regressor count p) of a design."""
    alphas, betas, _, _ = _design_curves(_parse_design(design)[0])
    return len(alphas), len(betas[0])


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), part
# of the stream contract of NEP 19
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words32(n):
    """A non-negative int as little-endian 32-bit words, as SeedSequence reads it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _stream_states(seed, design_code, rep, firms, roles):
    """PCG64 seed words of every (firm, role) stream of a panel, in one pass.

    Entry ``[i, r]`` equals ``SeedSequence(seed, spawn_key=(design_code, rep,
    i, roles[r])).generate_state(4, np.uint64)``. This is numpy's entropy
    pool mixing and state generation with every step masked to 32 bits, so
    one code path serves Python ints and uint32 arrays. The words that every
    stream shares (seed, design, rep) are mixed once as Python ints; the
    firm index (one word, ``firms < 2**32``) and the role broadcast as
    uint32 arrays of shapes (firms, 1) and (len(roles),). The hash
    constants stay Python ints below 2**32, so no numpy scalar overflows.
    Returns a (firms, len(roles), 4) uint64 array.
    """
    run = _words32(seed)
    run += [0] * (_POOL_SIZE - len(run))  # padded to the pool before a spawn key
    entropy = run + _words32(design_code) + _words32(rep)
    entropy += [np.arange(firms, dtype=np.uint32)[:, None], np.asarray(roles, dtype=np.uint32)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
        return value ^ (value >> 16)

    # the padded run entropy fills the pool; every spawn-key word comes after
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((firms, len(roles), 2 * _POOL_SIZE), dtype="<u4")
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state[..., i] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)


class _Fixed(ISeedSequence):
    """Hands PCG64 seed words computed ahead by ``_stream_states``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _equal_split(N, K):
    sizes = [N // K + (1 if k < N % K else 0) for k in range(K)]
    membership = np.concatenate([np.full(s, k + 1) for k, s in enumerate(sizes)])
    return membership.astype(int)


def generate(design, N, T, seed, rep=0):
    """Generate one panel plus its ground truth.

    Args:
        design: one of dgp1u/dgp1m/dgp2u/dgp2m/dgp3u/dgp3m (case
            insensitive).
        N, T: firm and period counts; T must be at least 2 and N at
            least the design's group count.
        seed: master seed, a non-negative integer; together with ``rep``
            it keys all streams.
        rep: replication index for Monte Carlo use, non-negative.

    ``N``, ``T``, ``seed`` and ``rep`` must be integers (numpy integers
    included, bools not) within those bounds; anything else raises
    ``InputError`` naming the argument.

    Returns:
        (PanelData, DgpTruth)
    """
    base, law_code = _parse_design(design)
    N, T = as_integer("N", N), as_integer("T", T, low=2)
    seed, rep = as_integer("seed", seed, low=0), as_integer("rep", rep, low=0)
    alphas, betas, sigma_v, (x_mean, x_sd) = _design_curves(base)
    K = len(alphas)
    p = len(betas[0])
    if N < K:
        raise InputError(f"need N >= {K} for design {design}, got {N}")
    membership = _equal_split(N, K)
    law = UniqueLaw() if law_code == "u" else MixtureLaw()
    dcode = DESIGNS.index(design.lower())

    tau_grid = np.arange(1, T + 1) / T
    alpha_vals = np.stack([f(tau_grid) * np.ones(T) for f in alphas])
    beta_vals = np.stack([
        np.column_stack([f(tau_grid) * np.ones(T) for f in fs]) for fs in betas
    ])

    # listed in code order, so a role's code indexes its stream below
    roles = (_ROLE_X, _ROLE_V, _ROLE_U)
    if law.kind == "mixture":
        roles += (_ROLE_COMPONENT,)
    z_x = np.empty((N, T, p))
    z_v = np.empty((N, T))
    z_u = np.empty(N)
    draw = np.empty(N)
    for i, words in enumerate(_stream_states(seed, dcode, rep, N, roles)):
        streams = [np.random.Generator(np.random.PCG64(_Fixed(w))) for w in words]
        z_x[i] = streams[_ROLE_X].standard_normal((T, p))
        z_v[i] = streams[_ROLE_V].standard_normal(T)
        z_u[i] = streams[_ROLE_U].standard_normal()
        if law.kind == "mixture":
            draw[i] = streams[_ROLE_COMPONENT].uniform()

    if law.kind == "unique":
        component = np.ones(N, dtype=int)
        level, su = law.alpha0, law.sigma_u
    else:
        component = np.where(draw < law.tau, 1, 2)
        level = np.where(component == 1, law.alpha0_1, law.alpha0_2)
        su = np.where(component == 1, law.sigma_u_1, law.sigma_u_2)
    g = membership - 1
    x = x_mean + x_sd * z_x
    u = np.abs(z_u) * su
    v = np.array(sigma_v)[g, None] * z_v
    # added in place in the same left-to-right order, so every partial sum
    # shares one array
    y = (level - u)[:, None] + alpha_vals[g]
    y += (x * beta_vals[g]).sum(axis=2)
    y += v

    panel = PanelData(y=y, x=x)
    truth = DgpTruth(
        design=design.lower(), K=K, membership=membership, sigma_v=np.array(sigma_v),
        alpha_funcs=alphas, beta_funcs=betas, law=law, u=u, component=component,
    )
    return panel, truth
