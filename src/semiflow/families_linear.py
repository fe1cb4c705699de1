"""Linear building-block transition operators on grid functions.

Two kernels are provided:

* the Gaussian heat-with-drift operator  f(x) -> E[f(x + sigma W_t + lambda t)],
  evaluated as the exact Gaussian integral of the piecewise-(multi)linear
  reconstruction of f.  The integral over each grid cell is expressed through
  differences of the normal CDF and its first partial moment, so the operator
  is exact for linear data, has nonnegative weights (hence is monotone), and
  stays well behaved when sqrt(t) is far smaller than the grid spacing, which
  is the regime every deep dyadic level enters.  The kernel is truncated at
  8 standard deviations per axis; the truncated tail mass (< 1e-15) is
  dropped, not renormalized, preserving the zero-extension semantics.

  The weights of one dt are the same for all 2^n steps of a level, so they
  are compiled once into a step plan per axis and dt: the weights of every
  candidate stacked over the union of their tap ranges, the boundary
  coefficients and the pure-drift interpolation indices.  A step applies
  the plan to all candidates in one batched pass, an FFT convolution
  (numpy.fft), then the boundary terms.  Only the last plan of each grid
  axis is kept, and it is dropped before the next one is built, so the
  cache holds at most one plan per axis; the FFT work runs over chunks of
  candidates, so its temporaries stay bounded as well.

* the geometric Brownian motion operator f(x) -> E[f(x X_t)] with
  X_t = exp((mu - sigma^2/2) t + sigma W_t), evaluated by Gauss-Hermite
  quadrature in the Brownian variable with f read through clamped linear
  interpolation.  Values escaping the box are clamped; a tracked trusted
  interior radius marks the nodes where the escaping lognormal mass is below
  1e-10, and norms are restricted to that interior.

  For one (mu, sigma) member and one dt this operator is a fixed sparse
  matrix, so it is compiled once into a plan: the interpolation cells and
  weights of every node and quadrature point, merged where consecutive
  points share a cell, as two CSR matrices (low and high weights) over the
  x >= 0 half of the grid, plus the escape-mass flag.  The nodes are
  exactly symmetric, so the same rows applied to the reversed values serve
  x <= 0.  The last plan of each member is kept, and a step on another grid
  drops them all.  scipy.sparse is imported only when a plan is built, so
  runs without GBM do not load it.

In 2D only diagonal (and scalar) diffusion matrices are supported, through
tensor-product application of the 1D kernel along each axis.

Every grid family has one form: the nodewise max over a finite candidate set
of (one of these linear transitions - cost t).  kernel_family builds the
descriptor of such a set, with envelopes e^{omega t} and the generator
kernel_generator, the same max taken over the candidates' linear generators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import ndtr, ndtri

from .chernoff import GeneratingFamilyDescriptor, check_family_contract
from .state_space import (
    Grid,
    GridFunction,
    NormSpec,
    sample_function,
    with_values,
)

__all__ = [
    "HeatDriftParams",
    "GbmParams",
    "heat_drift_step",
    "gbm_step",
    "make_heat_family",
    "make_identity_base_family",
    "kernel_family",
    "kernel_generator",
    "gbm_trusted_radius",
    "gbm_growth_rate",
    "central_diff",
    "second_diff",
]

KERNEL_CUTOFF_SIGMAS = 8.0
GBM_ESCAPE_THRESHOLD = 1e-10
# upper-tail normal quantile at the escape threshold
_Z_ESCAPE = float(-ndtri(GBM_ESCAPE_THRESHOLD))

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT2PI


@dataclass(frozen=True)
class HeatDriftParams:
    """Drift vector and diffusion scale(s) of the Gaussian transition kernel.

    sigma is a scalar for dim 1; for dim 2 a scalar (isotropic) or a pair of
    per-axis scales (diagonal diffusion matrix).
    """

    drift: tuple[float, ...]
    sigma: tuple[float, ...]

    @staticmethod
    def create(drift, sigma, dim: int = 1) -> "HeatDriftParams":
        d = (float(drift),) * dim if np.isscalar(drift) else tuple(float(v) for v in drift)
        s = (float(sigma),) * dim if np.isscalar(sigma) else tuple(float(v) for v in sigma)
        if len(d) != dim or len(s) != dim:
            raise ValueError("drift/sigma length must match dim")
        if not all(np.isfinite(d)) or not all(np.isfinite(s)):
            raise ValueError("params must be finite")
        return HeatDriftParams(drift=d, sigma=s)


@dataclass(frozen=True)
class GbmParams:
    """GBM drift/volatility with quadrature size and weight exponent.

    The growth constant omega = p (mu + (p-1) sigma^2 / 2)^+ controls the
    declared envelopes e^{omega t} of the family in the weighted norm.
    """

    mu: float
    sigma: float
    quad_points: int = 64
    p: float = 3.0

    def __post_init__(self):
        if self.quad_points < 8:
            raise ValueError("quadrature node count must be >= 8")
        if not self.p > 1:
            raise ValueError("weight exponent p must be > 1")

    @property
    def omega(self) -> float:
        return gbm_growth_rate([(self.mu, self.sigma)], self.p)


def gbm_growth_rate(mu_sigma_pairs, p: float) -> float:
    """omega = max over the parameter set of p (mu + (p-1) sigma^2 / 2)^+."""
    return max(max(0.0, p * (mu + (p - 1) * sig * sig / 2.0))
               for mu, sig in mu_sigma_pairs)


# ---------------------------------------------------------------------------
# 1D heat kernel: exact Gaussian-cell quadrature
# ---------------------------------------------------------------------------

def _hat_weights(delta: np.ndarray, s: float, h: float) -> np.ndarray:
    """Integral of the unit hat at 0 against the N(delta, s^2) density.

    Exact formula from CDF differences and first partial moments over the two
    half-cells of the hat support [-h, h].
    """
    za1 = (-h - delta) / s
    zb1 = (0.0 - delta) / s
    zb2 = (h - delta) / s
    i0_1 = ndtr(zb1) - ndtr(za1)
    i1_1 = s * (_phi(za1) - _phi(zb1))
    i0_2 = ndtr(zb2) - ndtr(zb1)
    i1_2 = s * (_phi(zb1) - _phi(zb2))
    return (i1_1 + (delta + h) * i0_1 + (h - delta) * i0_2 - i1_2) / h


def _ramp_weights(x_edge: float, h: float, means: np.ndarray, s: float,
                  rising: bool) -> np.ndarray:
    """Gaussian mass of the phantom boundary ramp cell adjacent to x_edge.

    rising=True is the left ramp on [x_edge - h, x_edge] growing 0 -> 1;
    rising=False the right ramp on [x_edge, x_edge + h] falling 1 -> 0.
    """
    if rising:
        a, b = x_edge - h, x_edge
    else:
        a, b = x_edge, x_edge + h
    za = (a - means) / s
    zb = (b - means) / s
    i0 = ndtr(zb) - ndtr(za)
    i1 = s * (_phi(za) - _phi(zb))
    if rising:
        return (i1 + (means - a) * i0) / h
    return ((b - means) * i0 - i1) / h


# ---------------------------------------------------------------------------
# step plans: the heat kernels of one dt, compiled once and applied batched
# ---------------------------------------------------------------------------

# Bound on the FFT temporaries of one chunk of candidates.
_CHUNK_BYTES = 2**17
# (key, plan) of the last plan of each grid axis: all steps of a level, and
# both states of a certificate check, share one dt.
_LAST_PLAN: dict = {}


def _fft_size(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@dataclass(frozen=True)
class _AxisPlan:
    """The 1D heat step of every candidate along one grid axis, for one dt.

    Diffusive candidates (indices `diffuse`) convolve with their tap weights
    over the union of their tap ranges, which starts at r_lo and contains 0
    so that padding and slicing need no clipping.  The weights are held as
    the rFFT of length nfft of a (C, taps) matrix whose row is zero outside
    the candidate's own reach.  edge_lo and edge_hi multiply the first and
    the last node value on the first and the last nodes of the axis: the
    phantom ramp cells of the zero-padded convolution, the clamp tails, and
    the far-field clamp (coefficient 1 where the whole kernel lies outside
    the box).  Pure-drift candidates (indices `drift`) read the
    piecewise-linear reconstruction at nodes j and j + 1 with weights w_lo
    and w_hi, both 0 outside the box in zero mode.  A plan depends only on
    its cache key, so results do not depend on what the cache holds.
    """

    n: int
    r_lo: int
    nfft: int
    diffuse: np.ndarray
    spectra: np.ndarray
    edge_lo: np.ndarray
    edge_hi: np.ndarray
    drift: np.ndarray
    drift_j: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray


def _edge_coefficients(means: np.ndarray, sd: np.ndarray, reach: np.ndarray,
                       h: float, x0: float, xN: float, rising: bool,
                       clamp: bool) -> np.ndarray:
    """Coefficients of the first (rising) or last node value at kernel means
    near that edge: the phantom ramp cell of the zero-padded convolution,
    the constant tail in clamp mode, and 1 where in clamp mode the whole
    kernel lies beyond the edge."""
    x_edge = x0 if rising else xN
    near = np.abs(means - x_edge) <= reach
    coef = -_ramp_weights(x_edge, h, means, sd, rising=rising)
    if clamp:
        tail = ndtr((x_edge - means) / sd)
        coef += tail if rising else 1.0 - tail
        far = means < x0 - reach if rising else means > xN + reach
        coef[far] = 1.0
        near |= far
    coef[~near] = 0.0
    return coef


def _build_axis_plan(axis_nodes: np.ndarray, h: float, shifts: np.ndarray,
                     s: np.ndarray, ext_mode: str) -> _AxisPlan:
    """Compile the plan of one axis for one-step shifts and scales s."""
    n = axis_nodes.size
    x0 = axis_nodes[0]
    xN = axis_nodes[-1]
    clamp = ext_mode == "clamp"
    diffuse = np.flatnonzero(s != 0.0)
    drift = np.flatnonzero(s == 0.0)

    # pure drift: the extended piecewise-linear reconstruction at x + shift
    pts = axis_nodes + shifts[drift, None]
    u = (np.clip(pts, x0, xN) - x0) / h
    drift_j = np.minimum(u.astype(np.int64), n - 2)
    w_hi = u - drift_j
    w_lo = 1.0 - w_hi
    if not clamp:
        outside = (pts < x0) | (pts > xN)
        w_lo[outside] = 0.0
        w_hi[outside] = 0.0

    sd = s[diffuse, None]
    shift = shifts[diffuse, None]
    reach = KERNEL_CUTOFF_SIGMAS * sd + h
    lo = np.ceil((-reach - shift) / h).astype(np.int64)
    hi = np.floor((reach - shift) / h).astype(np.int64)
    r_lo = int(lo.min(initial=0))
    taps = int(hi.max(initial=0)) - r_lo + 1
    r = np.arange(r_lo, r_lo + taps)
    nfft = _fft_size(n + taps - 1)
    # node i sees the left edge only if i <= hi, the right one only if
    # n - 1 - i <= -lo; one node of slack absorbs rounding
    lo_cols = int(np.clip(hi.max(initial=-2) + 2, 0, n))
    hi_cols = int(np.clip(2 - lo.min(initial=2), 0, n))

    count = diffuse.size
    spectra = np.empty((count, nfft // 2 + 1), complex)
    edge_lo = np.empty((count, lo_cols))
    edge_hi = np.empty((count, hi_cols))
    # a few candidates at a time bound the temporaries of the weight formulas
    per = max(1, _CHUNK_BYTES // (16 * max(taps, n)))
    for c0 in range(0, count, per):
        c = slice(c0, c0 + per)
        k = _hat_weights(r * h + shift[c], sd[c], h)
        k[(r < lo[c]) | (r > hi[c])] = 0.0
        spectra[c] = np.fft.rfft(k, nfft, axis=1)
        edge_lo[c] = _edge_coefficients(axis_nodes[:lo_cols] + shift[c], sd[c],
                                        reach[c], h, x0, xN, True, clamp)
        edge_hi[c] = _edge_coefficients(axis_nodes[n - hi_cols:] + shift[c], sd[c],
                                        reach[c], h, x0, xN, False, clamp)
    return _AxisPlan(n=n, r_lo=r_lo, nfft=nfft, diffuse=diffuse,
                     spectra=spectra, edge_lo=edge_lo, edge_hi=edge_hi,
                     drift=drift, drift_j=drift_j, w_lo=w_lo, w_hi=w_hi)


def _axis_plan(grid: Grid, a: int, t: float, drifts: np.ndarray,
               sigmas: np.ndarray, ext_mode: str) -> _AxisPlan:
    """The plan of grid axis a and dt: the axis's last plan when its key
    matches, else a new one, built after the old one is dropped."""
    shifts = drifts * t
    s = sigmas * math.sqrt(t)
    key = (grid.x_max[a], grid.n_points[a], t, shifts.tobytes(), s.tobytes(),
           ext_mode)
    held = _LAST_PLAN.pop(a, None)
    if held is None or held[0] != key:
        held = None  # frees the old plan before the new one is allocated
        held = (key, _build_axis_plan(grid.axis(a), grid.h[a], shifts, s, ext_mode))
    _LAST_PLAN[a] = held
    return held[1]


def _add_edges(plan: _AxisPlan, c0: int, res: np.ndarray, data: np.ndarray):
    """Add the edge terms of diffusive candidates c0, c0 + 1, ... to their
    convolutions res, shape (k, P, n, Q); data holds their inputs."""
    k = res.shape[0]
    lo = plan.edge_lo[c0:c0 + k, None, :, None]
    hi = plan.edge_hi[c0:c0 + k, None, :, None]
    res[:, :, :lo.shape[2]] += lo * data[:, :, :1]
    res[:, :, plan.n - hi.shape[2]:] += hi * data[:, :, -1:]


def _apply_axis_plan(plan: _AxisPlan, data: np.ndarray, out: np.ndarray) -> None:
    """Apply a plan along axis 2 of data, shape (B, P, n, Q), into out, shape
    (C, P, n, Q).

    B is 1 (all candidates read the same data) or C (candidate c reads
    data[c]); out may be data itself.  FFT work runs over chunks of
    candidates, so no temporary holds the spectra of all of them.
    """
    shared = data.shape[0] == 1
    if plan.drift.size:
        src = data if shared else data[plan.drift]
        j = plan.drift_j[:, None, :, None]
        out[plan.drift] = (plan.w_lo[:, None, :, None] * np.take_along_axis(src, j, 2)
                           + plan.w_hi[:, None, :, None]
                           * np.take_along_axis(src, j + 1, 2))
    rows = plan.diffuse
    if not rows.size:
        return
    n = plan.n
    nfft = plan.nfft
    spectra = plan.spectra[:, None, :, None]
    freq = np.fft.rfft(data, nfft, axis=2) if shared else None
    per = max(1, _CHUNK_BYTES // (32 * spectra.shape[2] * data.shape[1]
                                  * data.shape[3]))
    for c0 in range(0, rows.size, per):
        sel = rows[c0:c0 + per]
        part = data if shared else data[sel]
        f_hat = freq if shared else np.fft.rfft(part, nfft, axis=2)
        conv = np.fft.irfft(spectra[c0:c0 + per] * f_hat, nfft, axis=2)
        # node i is linear-convolution index i - r_lo
        res = conv[:, :, -plan.r_lo:n - plan.r_lo]
        _add_edges(plan, c0, res, part)
        out[sel] = res


def heat_multi_step(f: GridFunction, t: float, drifts: np.ndarray,
                    sigmas: np.ndarray) -> np.ndarray:
    """Batch of heat-with-drift steps sharing one input state.

    drifts has shape (C, dim); sigmas shape (C,) (isotropic per candidate) or
    (C, dim) for diagonal diffusion.  Returns values of shape (C, n_nodes, m).
    Each axis applies the cached plan of its dt: on a 2D grid axis 0 runs
    over all candidates at once, then axis 1 runs slab by slab, candidate c
    with its own kernel on its own slab.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    drifts = np.atleast_2d(np.asarray(drifts, dtype=np.float64))
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.ndim == 1:
        sigmas = np.repeat(sigmas[:, None], f.grid.dim, axis=1)
    C = drifts.shape[0]
    if t == 0.0:
        return np.broadcast_to(f.values, (C, *f.values.shape)).copy()

    grid = f.grid
    plans = [_axis_plan(grid, a, t, drifts[:, a], sigmas[:, a], f.extension_mode)
             for a in range(grid.dim)]
    n0 = grid.n_points[0]
    data = f.values.reshape(1, 1, n0, -1)
    out = np.empty((C, 1, n0, data.shape[3]))
    _apply_axis_plan(plans[0], data, out)
    if grid.dim == 2:
        slabs = out.reshape(C, n0, grid.n_points[1], f.codomain_dim)
        _apply_axis_plan(plans[1], slabs, slabs)
    return out.reshape(C, grid.n_nodes, f.codomain_dim)


def heat_drift_step(f: GridFunction, t: float, params: HeatDriftParams) -> GridFunction:
    """One Gaussian transition step; t = 0 returns f unchanged."""
    if t == 0.0:
        return f
    vals = heat_multi_step(f, t, np.array([params.drift]),
                           np.array([params.sigma]))[0]
    return with_values(f, vals)


# ---------------------------------------------------------------------------
# GBM transition operator
# ---------------------------------------------------------------------------

def gbm_trusted_radius(mu_sigma_pairs, x_max: float, horizon: float) -> float:
    """Radius inside which the lognormal mass escaping the box stays below
    the escape threshold for every composition of steps up to the horizon."""
    drift = max(0.0, max((mu - sig * sig / 2.0) for mu, sig in mu_sigma_pairs))
    sig_max = max(abs(sig) for _, sig in mu_sigma_pairs)
    return x_max * math.exp(-drift * horizon - _Z_ESCAPE * sig_max * math.sqrt(horizon))


def _gbm_escape_mass(x: np.ndarray, t: float, mu: float, sigma: float,
                     x_max: float) -> np.ndarray:
    """P(|x X_t| > x_max) for the one-step lognormal factor."""
    ax = np.abs(x)
    out = np.zeros_like(ax)
    pos = ax > 0
    if sigma == 0.0 or t == 0.0:
        out[pos] = (ax[pos] * math.exp(mu * t) > x_max).astype(float)
        return out
    z = (np.log(x_max / ax[pos]) - (mu - sigma * sigma / 2.0) * t) / (
        abs(sigma) * math.sqrt(t))
    out[pos] = 1.0 - ndtr(z)
    return out


@lru_cache(maxsize=None)
def _gauss_hermite(points: int) -> tuple[np.ndarray, np.ndarray]:
    z, w = hermgauss(points)
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


@dataclass(frozen=True)
class _GbmPlan:
    """The GBM step of one member for one dt, on the x >= 0 half of the grid.

    Row k maps the half-grid values v[mid:] to the step at node mid + k:
    low @ v[mid:-1] + high @ v[mid + 1:].  The nodes are exactly symmetric,
    so the same rows applied to the reversed values v[mid::-1] give the step
    at node mid - k.  low and high are CSR matrices that share one index
    array, the quadrature cells; escapes is the one-step escape-mass flag of
    the trusted interior the plan was built for.
    """

    t: float
    low: object
    high: object
    escapes: bool


# The last plan of each GBM member, all on the grid _GBM_GRID: all steps of
# a level share one dt, and a robust family steps its members in turn.
_GBM_GRID: Grid | None = None
_GBM_PLANS: dict = {}


def _build_gbm_plan(grid: Grid, t: float, params: GbmParams,
                    trusted_radius: float | None) -> _GbmPlan:
    """Compile E[f(x X_t)] on the x >= 0 half of the grid into a plan.

    Node x and quadrature factor F_q read f in the cell j of x F_q with
    weights 1 - w and w, w = (x F_q - x[j]) / (x[j+1] - x[j]) as in
    np.interp; beyond the box the last cell with w = 1 clamps.  Consecutive
    quadrature nodes of one row in the same cell are merged into one entry.
    """
    from scipy.sparse import csr_matrix

    x = grid.axis(0)
    mid = x.size // 2
    half = x[mid:]
    m = half.size
    escapes = False
    if trusted_radius is not None:
        esc = _gbm_escape_mass(x[np.abs(x) <= trusted_radius], t, params.mu,
                               params.sigma, grid.x_max[0])
        escapes = bool(np.any(esc > GBM_ESCAPE_THRESHOLD))
    z, w = _gauss_hermite(params.quad_points)
    factors = np.exp((params.mu - params.sigma**2 / 2.0) * t
                     + params.sigma * math.sqrt(2.0 * t) * z)
    pts = np.multiply.outer(half, factors)
    # clamped before the cast, which is undefined beyond int32; fmin also
    # maps a NaN (0 x inf) to a cell, whose weights stay NaN
    j = np.fmin(pts / grid.h[0], m - 2).astype(np.int32)
    # w overwrites the points; the clip sets w = 1 beyond the box, and puts
    # back a w an ulp past 0 or 1 where the floor rounded to the next cell
    frac = pts
    frac -= half[j]
    frac /= np.diff(half)[j]
    np.clip(frac, 0.0, 1.0, out=frac)
    new = np.ones(j.shape, bool)
    np.not_equal(j[:, 1:], j[:, :-1], out=new[:, 1:])
    run = np.cumsum(new, dtype=np.intp) - 1
    indices = j[new]
    indptr = np.zeros(m + 1, np.int32)
    np.cumsum(np.count_nonzero(new, axis=1), out=indptr[1:])
    qw = w / math.sqrt(math.pi)
    frac *= qw  # the high weights q w
    hi = np.bincount(run, weights=frac.ravel())
    np.subtract(qw, frac, out=frac)  # the low weights q (1 - w)
    lo = np.bincount(run, weights=frac.ravel())
    shape = (m, m - 1)
    return _GbmPlan(t=t, low=csr_matrix((lo, indices, indptr), shape=shape),
                    high=csr_matrix((hi, indices, indptr), shape=shape),
                    escapes=escapes)


def _gbm_plan(grid: Grid, t: float, params: GbmParams,
              trusted_radius: float | None) -> _GbmPlan:
    """The member's last plan when its dt matches, else a new one, built
    after the old one is dropped; a call on another grid drops all plans."""
    global _GBM_GRID
    if _GBM_GRID != grid:
        _GBM_PLANS.clear()
        _GBM_GRID = grid
    member = (params.mu, params.sigma, params.quad_points, trusted_radius)
    plan = _GBM_PLANS.pop(member, None)
    if plan is None or plan.t != t:
        plan = None  # frees the old plan before the new one is allocated
        plan = _build_gbm_plan(grid, t, params, trusted_radius)
    _GBM_PLANS[member] = plan
    return plan


def gbm_step(f: GridFunction, t: float, params: GbmParams,
             trusted_radius: float | None = None) -> GridFunction:
    """E[f(x X_t)] by Gauss-Hermite quadrature in the Brownian variable.

    f is read through clamped linear interpolation; x = 0 maps to f(0).
    Emits a warning (never fails) when the one-step escaping mass exceeds
    the threshold at some node of the declared trusted interior.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if f.grid.dim != 1:
        raise ValueError("GBM operator is one-dimensional")
    if f.extension_mode != "clamp":
        raise ValueError("GBM operator requires clamp extension")
    if t == 0.0:
        return f
    plan = _gbm_plan(f.grid, t, params, trusted_radius)
    if plan.escapes:
        warnings.warn(
            "gbm_step: escaping lognormal mass exceeds threshold inside "
            "the trusted interior",
            stacklevel=2,
        )
    vals = f.values
    c = f.codomain_dim
    mid = vals.shape[0] // 2
    both = np.concatenate([vals[mid:], vals[mid::-1]], axis=1)
    res = plan.low @ both[:-1]
    res += plan.high @ both[1:]
    out = np.empty_like(vals)
    out[mid:] = res[:, :c]
    out[:mid] = res[:0:-1, c:]
    return with_values(f, out)


# ---------------------------------------------------------------------------
# finite-difference derivatives for analytic generators
# ---------------------------------------------------------------------------

def central_diff(mesh: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order first derivative; one-sided 2nd-order stencils at the ends."""
    m = np.moveaxis(mesh, axis, 0)
    out = np.empty_like(m)
    out[1:-1] = (m[2:] - m[:-2]) / (2.0 * h)
    out[0] = (-3.0 * m[0] + 4.0 * m[1] - m[2]) / (2.0 * h)
    out[-1] = (3.0 * m[-1] - 4.0 * m[-2] + m[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def second_diff(mesh: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order second derivative; one-sided stencils at the ends."""
    m = np.moveaxis(mesh, axis, 0)
    out = np.empty_like(m)
    out[1:-1] = (m[2:] - 2.0 * m[1:-1] + m[:-2]) / (h * h)
    out[0] = (2.0 * m[0] - 5.0 * m[1] + 4.0 * m[2] - m[3]) / (h * h)
    out[-1] = (2.0 * m[-1] - 5.0 * m[-2] + 4.0 * m[-3] - m[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


def kernel_generator(f: GridFunction, drifts, sigmas, costs) -> GridFunction:
    """The generator of a candidate set: nodewise max over candidates c of

        sum_a sigma_ca^2 / 2 d_a^2 f + b_ca d_a f - cost_c

    by central differences.  The arrays drifts b and sigmas have shape
    (C, dim), one coefficient per candidate and axis, or (C, dim, n_nodes)
    for coefficients that vary by node (mu x and sigma x for GBM); costs has
    shape (C,).
    """
    grid = f.grid
    mesh = f.as_mesh()
    flat = (costs.size,) + (1,) * (grid.dim + 1)
    per_node = flat if drifts.ndim == 2 else (costs.size, *grid.n_points, 1)
    diffusion = drift = 0.0
    for a in range(grid.dim):
        h = grid.h[a]
        diffusion = diffusion + (0.5 * sigmas[:, a].reshape(per_node) ** 2
                                 * second_diff(mesh, h, axis=a))
        drift = drift + drifts[:, a].reshape(per_node) * central_diff(mesh, h, axis=a)
    vals = np.max(diffusion + (drift - costs.reshape(flat)), axis=0)
    return with_values(f, vals.reshape(grid.n_nodes, f.codomain_dim))


# ---------------------------------------------------------------------------
# family descriptors
# ---------------------------------------------------------------------------

def kernel_family(name: str, step, grid: Grid, norm: NormSpec, drifts, sigmas,
                  costs, params: dict, omega: float = 0.0,
                  zero: GridFunction | None = None,
                  comparison_mask: np.ndarray | None = None
                  ) -> GeneratingFamilyDescriptor:
    """Descriptor of a family I(t)f = max over candidates c of (linear
    Gaussian or lognormal transition of c - cost_c t).

    step realizes I(t); drifts, sigmas and costs are the candidates'
    coefficients as kernel_generator takes them, which gives the declared
    generator.  The envelopes are alpha(R, t) = e^{omega t} R and
    beta(R, t) = e^{omega t}; omega = 0 is the contraction alpha = R,
    beta = 1.  Gaussian kernels (one sigma per candidate and axis) set the
    generator collar; per-node coefficients (lognormal transitions) have no
    kernel width in x, and their comparisons go through comparison_mask.
    """
    zero = sample_function("zero", grid) if zero is None else zero
    drifts, sigmas, costs = (np.asarray(v, dtype=np.float64)
                             for v in (drifts, sigmas, costs))
    fam = GeneratingFamilyDescriptor(
        name=name,
        state_kind="grid",
        step=step,
        alpha=lambda R, t: math.exp(omega * t) * R,
        beta=lambda R, t: math.exp(omega * t),
        zero_state=zero,
        norm=norm,
        analytic_generator=lambda f: kernel_generator(f, drifts, sigmas, costs),
        minus_conjugate=True,
        comparison_mask=comparison_mask,
        kernel_sigma_max=float(np.max(np.abs(sigmas))) if sigmas.ndim == 2 else 0.0,
        params=params,
    )
    check_family_contract(fam, probe_states=[zero])
    return fam


def make_heat_family(params: HeatDriftParams, norm: NormSpec, grid: Grid,
                     name: str = "heat") -> GeneratingFamilyDescriptor:
    """Heat-with-drift generating family, a single candidate without cost:
    a sup-norm contraction."""
    return kernel_family(
        name, lambda t, f: heat_drift_step(f, t, params), grid, norm,
        [params.drift], [params.sigma], [0.0],
        {"kind": "heat", "drift": params.drift, "sigma": params.sigma})


def make_identity_base_family(grid: Grid, norm: NormSpec) -> GeneratingFamilyDescriptor:
    """The identity semigroup I0(t) = id, a trivial linear base for
    Lipschitz perturbations: one candidate with no drift, no diffusion and
    no cost."""
    still = np.zeros((1, grid.dim))
    return kernel_family("identity_base", lambda t, f: f, grid, norm, still,
                         still, [0.0], {"kind": "identity_base"})
