"""Linear building-block transition operators on grid functions.

Two kernels are provided:

* the heat-with-drift operator f(x) -> E[f(x + sigma W_t + b t)], evaluated
  exactly for its semi-discrete approximation: along each axis the candidate
  is the nearest-neighbour Markov chain on the grid with the central rates
  sigma^2 / (2 h^2) +- b / (2 h) where they are monotone (|b| h <= sigma^2)
  and the upwind rates sigma^2 / (2 h^2) + b^+- / h elsewhere (Kushner &
  Dupuis).  Pure diffusion is the discrete Gaussian e^{-lambda} I_k(lambda),
  lambda = sigma^2 t / h^2; sigma = 0 is the upwind Poisson shift.  The step
  is the exact semigroup exp(t Q) of the chain's generator Q, so it is
  monotone, conserves constants on the lattice, satisfies
  I(s) I(t) = I(s + t) away from the box edges, and kernel_generator is Q
  itself.  Outside the box f reads 0 (zero extension) or its edge value
  (clamp).

  The step of one dt is the same for all 2^n steps of a level, so it is
  compiled once into a step plan per axis and dt: the characteristic
  function exp(dt psi(xi)), psi(xi) = r+ (e^{i xi} - 1) + r- (e^{-i xi} - 1),
  of every candidate at the rFFT frequencies.  Candidates that share one
  rate sum r+ + r- and whose means r+ - r- step evenly, the drifts of a
  uniform drift grid under one sigma, have spectra row 0 times the powers of
  one step phase, which one cumulative product over the candidates gives
  from two complex exp rows (_stepped_spectra); any other set takes one
  exp per candidate and frequency.  The axis is extended by
  zeros or edge values beyond the reach of every kernel: the smallest k at
  which the Chernoff bound of each candidate's Skellam law N+ - N- puts at
  most 1e-16 of its mass beyond +-k (_reach), so the wrapped mass stays
  below 1e-16 on each side.  A step applies the plan to all
  candidates in one batched FFT convolution (numpy.fft), over chunks of
  candidates, so its temporaries stay bounded.

* the geometric Brownian motion operator f(x) -> E[f(x X_t)] with
  X_t = exp((mu - sigma^2/2) t + sigma W_t), evaluated by Gauss-Hermite
  quadrature in the Brownian variable with f read through clamped linear
  interpolation.  Values escaping the box are clamped; a tracked trusted
  interior radius marks the nodes where the escaping lognormal mass is below
  1e-10, and norms are restricted to that interior.

  For one (mu, sigma) member and one dt this operator is a fixed linear
  map, so it is compiled once into a plan over the x >= 0 half of the grid:
  the interpolation cell of every node and quadrature point, the high
  weights q w of those points, the quadrature weights q and the escape-mass
  flag, all as read-only numpy arrays.  A step gathers the values and their
  differences at the cells and sums them with the weights.  The nodes are
  exactly symmetric, so the same rows applied to the reversed values serve
  x <= 0.

Both kernels keep their plans by one rule, _last_plan: each slot, a grid
axis of the heat step or a GBM member, holds the plan of its last key (grid
and dt), and the old plan is dropped before a new one is built.  All steps
of a level share one dt and a robust family steps its members in turn, so a
level builds each plan once, and the cache holds at most one plan per slot.

In 2D only diagonal (and scalar) diffusion matrices are supported, through
tensor-product application of the 1D kernel along each axis.

Every grid family has one form: the nodewise max over a finite candidate set
of (one of these linear transitions - cost t).  kernel_family builds the
descriptor of such a set, with envelopes e^{omega t} and the generator
kernel_generator, the same max taken over the candidates' chain generators.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

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
]

# Gaussian cutoff, in standard deviations, of perfbench's heat tap counts;
# the plans size their reach by _reach.
KERNEL_CUTOFF_SIGMAS = 8.0
GBM_ESCAPE_THRESHOLD = 1e-10
# upper-tail normal quantile at the escape threshold
_Z_ESCAPE = -statistics.NormalDist().inv_cdf(GBM_ESCAPE_THRESHOLD)


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
    """GBM drift/volatility with the Gauss-Hermite quadrature size."""

    mu: float
    sigma: float
    quad_points: int = 64

    def __post_init__(self):
        if self.quad_points < 8:
            raise ValueError("quadrature node count must be >= 8")


def gbm_growth_rate(mu_sigma_pairs, p: float) -> float:
    """omega = max over the parameter set of p (mu + (p-1) sigma^2 / 2)^+."""
    return max(max(0.0, p * (mu + (p - 1) * sig * sig / 2.0))
               for mu, sig in mu_sigma_pairs)


# ---------------------------------------------------------------------------
# the nearest-neighbour chains and their step plans
# ---------------------------------------------------------------------------

def _jump_rates(drift, var, h: float):
    """Rates (up, down) of the nearest-neighbour chain on spacing h with mean
    drift and variance var per unit time: the central rates
    var / (2 h^2) +- drift / (2 h) where they are monotone (|drift| h <= var),
    else the upwind rates var / (2 h^2) + drift^+- / h.  var = 0 gives the
    upwind Poisson shift, var = drift = 0 the identity."""
    diffuse = var / (2.0 * h * h)
    central = np.abs(drift) * h <= var
    up = diffuse + np.where(central, drift / (2.0 * h), np.maximum(drift, 0.0) / h)
    down = diffuse - np.where(central, drift / (2.0 * h), np.minimum(drift, 0.0) / h)
    return up, down


# Bound on the FFT temporaries of one chunk of candidates.
_CHUNK_BYTES = 2**17
# Bound on the mass of each kernel's law beyond its reach, on each side.
_TAIL_MASS = 1e-16
_LOG_TAIL_MASS = math.log(_TAIL_MASS)
# The Gaussian reach in standard deviations, exp(-z^2 / 2) = _TAIL_MASS.
_TAIL_Z = math.sqrt(-2.0 * _LOG_TAIL_MASS)
# Bound on the error _stepped_spectra may add to a plan's spectra.
_STEPPED_TOL = 1e-13
# (key, plan) of the last plan of each slot, see _last_plan.
_PLANS: dict = {}


def _last_plan(slot, key, build):
    """The plan held in slot when its key matches, else build(), called after
    the old plan is dropped so that the two are never held together."""
    held = _PLANS.pop(slot, None)
    if held is None or held[0] != key:
        held = None  # frees the old plan before the new one is allocated
        held = (key, build())
    _PLANS[slot] = held
    return held[1]


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

    spectra holds, per candidate, the characteristic function exp(dt psi) of
    its chain at the rFFT frequencies of length nfft.  The axis is extended
    to nfft nodes, by zeros or (clamp) by the edge values, and each half of
    the extension covers the reach of every kernel, so node i is index i of
    the circular convolution.  A plan depends only on its cache key, so
    results do not depend on what the cache holds.
    """

    n: int
    nfft: int
    clamp: bool
    spectra: np.ndarray


def _build_axis_plan(n: int, h: float, shifts: np.ndarray, s: np.ndarray,
                     ext_mode: str) -> _AxisPlan:
    """Compile the plan of one axis of n nodes for one-step shifts b dt and
    scales sigma sqrt(dt): the rates times dt are the expected jumps."""
    up, down = _jump_rates(shifts, s * s, h)
    rate, mean = up + down, up - down
    reach = _reach(float(np.max(rate)), float(np.max(np.abs(mean))))
    clamp = ext_mode == "clamp"
    nfft = _fft_size(n + (2 if clamp else 1) * reach)
    xi = np.arange(nfft // 2 + 1) * (2.0 * math.pi / nfft)
    # dt psi = (up + down)(cos xi - 1) + i (up - down) sin xi, with
    # cos xi - 1 = -2 sin^2(xi/2) free of cancellation
    half = np.sin(0.5 * xi)
    cosm1 = -2.0 * half * half
    sin_xi = np.sin(xi)
    spectra = _stepped_spectra(rate, mean, cosm1, sin_xi)
    if spectra is None:
        psi = np.empty((shifts.size, xi.size), complex)
        np.multiply.outer(rate, cosm1, out=psi.real)
        np.multiply.outer(mean, sin_xi, out=psi.imag)
        spectra = np.exp(psi, out=psi)
    return _AxisPlan(n=n, nfft=nfft, clamp=clamp, spectra=spectra)


def _reach(rate: float, mean: float) -> int:
    """The smallest k >= 1 at which the Chernoff bound puts at most
    _TAIL_MASS of the law of X = N+ - N- beyond k and beyond -k, for every
    candidate whose rate sum is at most rate and whose |mean| at most mean.

    With N+- Poisson of means a and b,

        log P(X >= k) <= -k theta + a (e^theta - 1) + b (e^-theta - 1),

    least at e^theta = (k + sqrt(k^2 + 4 a b)) / (2 a).  The bound holds for
    theta >= 0 only, that is for k above the mean a - b.  Its exponent
    r (cosh theta - 1) + m sinh theta grows in both r = a + b and m = a - b
    for theta >= 0, so the envelope a = (rate + mean) / 2,
    b = (rate - mean) / 2 bounds both tails of every candidate.  The walk
    starts at the Gaussian reach mean + _TAIL_Z sqrt(rate), above the mean
    and not above the answer: cosh theta - 1 >= theta^2 / 2 and
    sinh theta >= theta, so the bound is at least exp(-(k - m)^2 / (2 r)).
    """
    k = max(1, math.ceil(mean + _TAIL_Z * math.sqrt(rate)))
    a, b = 0.5 * (rate + mean), 0.5 * (rate - mean)
    if a == 0.0:
        return k  # rate 0: every candidate is the identity
    while True:
        u = (k + math.sqrt(k * k + 4.0 * a * b)) / (2.0 * a)
        if -k * math.log(u) + a * (u - 1.0) + b * (1.0 / u - 1.0) <= _LOG_TAIL_MASS:
            return k
        k += 1


def _stepped_spectra(rate: np.ndarray, mean: np.ndarray, cosm1: np.ndarray,
                     sin_xi: np.ndarray) -> np.ndarray | None:
    """exp(rate (cos xi - 1) + i mean sin xi) of C > 2 candidates that share
    one rate and whose means step evenly, else None.

    Such spectra are row 0 times the k-th power of one step phase
    exp(i delta sin xi), so one cumulative product over the candidates gives
    them from two complex exp rows instead of C.  The rates and means of a
    uniform drift grid have that form only up to round-off, so the set is
    taken when an estimate of the error stays within _STEPPED_TOL: each
    deviation times the largest |cos xi - 1| or |sin xi| it meets under the
    decay exp(r (cos xi - 1)), r = rate_0, plus C ulps for the product.
    With u = -(cos xi - 1) = 2 s^2, s = sin(xi/2), those are at most
    max u e^{-r u} = 1 / (e r) and max 2 s e^{-2 r s^2} = 1 / sqrt(e r).
    """
    C = mean.size
    if C <= 2:
        return None
    r = rate[0]
    delta = (mean[-1] - mean[0]) / (C - 1)
    spread = 1.0 / (math.e * r) if r > 0 else math.inf
    error = (np.max(np.abs(rate - r)) * min(2.0, spread)
             + np.max(np.abs(mean - (mean[0] + delta * np.arange(C))))
             * min(1.0, math.sqrt(spread))
             + C * np.finfo(float).eps)
    if not error <= _STEPPED_TOL:
        return None
    spectra = np.empty((C, sin_xi.size), complex)
    spectra[0] = np.exp(r * cosm1 + 1j * mean[0] * sin_xi)
    spectra[1:] = np.exp(1j * delta * sin_xi)
    return np.cumprod(spectra, axis=0, out=spectra)


def _axis_plan(grid: Grid, a: int, t: float, drifts: np.ndarray,
               sigmas: np.ndarray, ext_mode: str) -> _AxisPlan:
    """The plan of grid axis a and dt, held in the slot ("heat", a)."""
    shifts = drifts * t
    s = sigmas * math.sqrt(t)
    key = (grid.x_max[a], grid.n_points[a], t, shifts.tobytes(), s.tobytes(),
           ext_mode)
    return _last_plan(("heat", a), key, lambda: _build_axis_plan(
        grid.n_points[a], grid.h[a], shifts, s, ext_mode))


def _extended_spectrum(plan: _AxisPlan, data: np.ndarray) -> np.ndarray:
    """rFFT along axis 2 of data extended to nfft nodes: by zeros, or in
    clamp mode by the last value and then, wrapping round to node 0, the
    first value."""
    if not plan.clamp:
        return np.fft.rfft(data, plan.nfft, axis=2)
    n = plan.n
    mid = n + (plan.nfft - n) // 2
    ext = np.empty((*data.shape[:2], plan.nfft, data.shape[3]))
    ext[:, :, :n] = data
    ext[:, :, n:mid] = data[:, :, -1:]
    ext[:, :, mid:] = data[:, :, :1]
    return np.fft.rfft(ext, axis=2)


def _apply_axis_plan(plan: _AxisPlan, data: np.ndarray, out: np.ndarray) -> None:
    """Apply a plan along axis 2 of data, shape (B, P, n, Q), into out, shape
    (C, P, n, Q).

    B is 1 (all candidates read the same data) or C (candidate c reads
    data[c]); out may be data itself.  FFT work runs over chunks of
    candidates, so no temporary holds the spectra of all of them.
    """
    shared = data.shape[0] == 1
    spectra = plan.spectra[:, None, :, None]
    freq = _extended_spectrum(plan, data) if shared else None
    per = max(1, _CHUNK_BYTES // (32 * spectra.shape[2] * data.shape[1]
                                  * data.shape[3]))
    for c0 in range(0, spectra.shape[0], per):
        c = slice(c0, c0 + per)
        f_hat = freq if shared else _extended_spectrum(plan, data[c])
        out[c] = np.fft.irfft(spectra[c] * f_hat, plan.nfft, axis=2)[:, :, :plan.n]


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
    out[pos] = [0.5 * math.erfc(v / math.sqrt(2.0)) for v in z.tolist()]
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

    Row k maps the half-grid values b = v[mid:] to the step at node mid + k:
    b[cells[k]] @ q + diff(b)[cells[k]] @ high[k], which is
    sum_q (q - q w) b[j] + q w b[j + 1] over its cells j.  The nodes are
    exactly symmetric, so the same rows applied to the reversed values
    v[mid::-1] give the step at node mid - k.  cells and high are (m, Q)
    arrays, q the Gauss-Hermite weights over sqrt(pi), all read-only; escapes
    is the one-step escape-mass flag of the trusted interior the plan was
    built for.  cells is intp, which indexing reads in place; b.take(cells)
    would copy it on every call, because it is read-only.
    """

    cells: np.ndarray
    high: np.ndarray
    q: np.ndarray
    escapes: bool


def _build_gbm_plan(grid: Grid, t: float, params: GbmParams,
                    trusted_radius: float | None) -> _GbmPlan:
    """Compile E[f(x X_t)] on the x >= 0 half of the grid into a plan.

    Node x and quadrature factor F_q read f in the cell j of x F_q with
    weights 1 - w and w, w = (x F_q - x[j]) / (x[j+1] - x[j]) as in
    np.interp; beyond the box the last cell with w = 1 clamps.
    """
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
    # clamped before the cast, which is undefined beyond intp; fmin also
    # maps a NaN (0 x inf) to a cell, whose weights stay NaN
    cells = np.fmin(pts / grid.h[0], m - 2).astype(np.intp)
    # w, then q w, overwrites the points; the clip sets w = 1 beyond the box,
    # and puts back a w an ulp past 0 or 1 where the floor rounded to the
    # next cell
    high = pts
    high -= half[cells]
    high /= np.diff(half)[cells]
    np.clip(high, 0.0, 1.0, out=high)
    q = w / math.sqrt(math.pi)
    high *= q
    for a in (cells, high, q):
        a.flags.writeable = False
    return _GbmPlan(cells=cells, high=high, q=q, escapes=escapes)


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
    slot = ("gbm", params.mu, params.sigma, params.quad_points, trusted_radius)
    plan = _last_plan(slot, (f.grid, t), lambda: _build_gbm_plan(
        f.grid, t, params, trusted_radius))
    if plan.escapes:
        warnings.warn(
            "gbm_step: escaping lognormal mass exceeds threshold inside "
            "the trusted interior",
            stacklevel=2,
        )
    vals = f.values
    mid = vals.shape[0] // 2

    def half_step(b):
        return (b[plan.cells] @ plan.q
                + np.einsum("kq,kq->k", np.diff(b)[plan.cells], plan.high))

    out = np.empty_like(vals)
    for comp in range(f.codomain_dim):
        out[mid:, comp] = half_step(vals[mid:, comp])
        out[:mid, comp] = half_step(vals[mid::-1, comp])[:0:-1]
    return with_values(f, out)


def kernel_generator(f: GridFunction, drifts, sigmas, costs) -> GridFunction:
    """The generator of a candidate set: nodewise max over candidates c of

        sum_a r+_ca (f(x + h_a) - f(x)) + r-_ca (f(x - h_a) - f(x)) - cost_c,

    the generator of the chains the heat step runs, with the rates of
    _jump_rates for drift b_ca and variance sigma_ca^2.  Neighbours outside
    the box read the state's extension, as the step does: 0, or the edge
    value under clamp.  The arrays drifts b and sigmas have shape (C, dim),
    one coefficient per candidate and axis, or (C, dim, n_nodes) for
    coefficients that vary by node (mu x and sigma x for GBM); costs has
    shape (C,).
    """
    grid = f.grid
    mesh = f.as_mesh()
    flat = (costs.size,) + (1,) * (grid.dim + 1)
    per_node = flat if drifts.ndim == 2 else (costs.size, *grid.n_points, 1)
    mode = "edge" if f.extension_mode == "clamp" else "constant"
    total = -costs.reshape(flat)
    for a in range(grid.dim):
        up, down = _jump_rates(drifts[:, a].reshape(per_node),
                               sigmas[:, a].reshape(per_node) ** 2, grid.h[a])
        width = [(0, 0)] * mesh.ndim
        width[a] = (1, 1)
        ext = np.moveaxis(np.pad(mesh, width, mode=mode), a, 0)
        fwd = np.moveaxis(ext[2:], 0, a) - mesh
        bwd = np.moveaxis(ext[:-2], 0, a) - mesh
        total = total + up * fwd + down * bwd
    vals = np.max(total, axis=0)
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


def make_heat_family(params: HeatDriftParams, norm: NormSpec,
                     grid: Grid) -> GeneratingFamilyDescriptor:
    """Heat-with-drift generating family, a single candidate without cost:
    a sup-norm contraction."""
    return kernel_family(
        "heat", lambda t, f: heat_drift_step(f, t, params), grid, norm,
        [params.drift], [params.sigma], [0.0],
        {"kind": "heat", "drift": params.drift, "sigma": params.sigma})


def make_identity_base_family(grid: Grid, norm: NormSpec) -> GeneratingFamilyDescriptor:
    """The identity semigroup I0(t) = id, a trivial linear base for
    Lipschitz perturbations: one candidate with no drift, no diffusion and
    no cost."""
    still = np.zeros((1, grid.dim))
    return kernel_family("identity_base", lambda t, f: f, grid, norm, still,
                         still, [0.0], {"kind": "identity_base"})
