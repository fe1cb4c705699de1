"""Linear building-block transition operators on grid functions.

Two kernels are provided:

* the heat-with-drift operator f(x) -> E[f(x + sigma W_t + b t)], evaluated
  exactly for its semi-discrete approximation: along each axis the candidate
  is the nearest-neighbour Markov chain on the grid with the central rates
  sigma^2 / (2 h^2) +- b / (2 h) where they are monotone (|b| h <= sigma^2)
  and the upwind rates sigma^2 / (2 h^2) + b^+- / h elsewhere (Kushner &
  Dupuis), chosen from the unscaled (b, sigma, h).  Pure diffusion is the
  discrete Gaussian e^{-lambda} I_k(lambda), lambda = sigma^2 t / h^2;
  sigma = 0 is the upwind Poisson shift.  A step of dt at any level is the
  exact semigroup exp(dt Q) of the chain's generator Q, so it is monotone,
  conserves constants on the lattice, satisfies I(s) I(t) = I(s + t) away
  from the box edges, and kernel_generator is Q itself.  Outside the box f
  reads 0 (zero extension) or its edge value (clamp).

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
  below 1e-16 on each side.  On a 1D grid a step applies the plan to all
  candidates in one batched FFT convolution (numpy.fft), over chunks of
  candidates, so that no temporary holds the spectra of all of them.

* the geometric Brownian motion operator f(x) -> E[f(x X_t)] with
  X_t = exp((mu - sigma^2/2) t + sigma W_t), evaluated by Gauss-Hermite
  quadrature in the Brownian variable with f read through clamped linear
  interpolation.  Values escaping the box are clamped.  The step is a pure
  linear transition; the trust rule on escaping mass is the robust GBM
  family's (families_nonlinear).

  For one (mu, sigma) member and one dt this operator is a fixed linear
  map, so it is compiled once into a plan over the x >= 0 half of the grid:
  the interpolation cell of every node and quadrature point and the high
  weights q w of those points, as read-only numpy arrays.  The quadrature is
  one fixed rule, the QUAD_POINTS-node Gauss-Hermite nodes and weights q
  over sqrt(pi), computed once at import and read-only.  A step gathers the
  values and their differences at the cells and sums them with the weights.
  The nodes are exactly symmetric, so the same rows applied to the reversed
  values serve x <= 0.  A robust family steps its members one by one: for
  five members one stacked (C, m, Q) gather gave the same bits but took
  2.9 ms against 1.1 ms for the loop on the same machine, likely a cache
  effect.

Every array a step keeps between calls is held by one rule, _last_plan: each
slot, a grid axis of the heat step, the plane step's buffers or a GBM
member, holds what its last key (grid and dt, or the extended shape) built,
and the old entry is dropped before a new one is built.  All steps of a
level share one dt and a robust family steps its members in turn, so a
level builds each plan once, and the cache holds at most one entry per slot.

In 2D only diagonal (and scalar) diffusion matrices are supported: a
candidate is the tensor product of its chains along the two axes, applied by
the plane transform (_plane_step).  The state, extended along both axes, is
transformed once per step, rFFT along axis 1 and FFT along axis 0; each
candidate multiplies that spectrum by its spectra along both axes and
inverts it, an FFT along axis 0 and an inverse rFFT along axis 1.  A step of
C candidates makes 2 + 2C FFT calls, all writing into buffers held from step
to step in the slot "plane" (_plane_buffers).

Every grid family has one form: the nodewise max over a finite candidate set
of (one of these linear transitions - cost t).  kernel_family builds the
descriptor of such a set from the set's linear batch, with envelopes
e^{omega t}, the reach of its chains by _reach, and the generator
kernel_generator, the same max taken over the candidates' chain generators.
One batch serves the images of f and of -f: the transitions are linear and
rounding is symmetric in sign, so the batch of -f is minus that of f, bit
for bit, and the symmetric certificate steps each ladder time once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .chernoff import GeneratingFamilyDescriptor, check_family_contract
from .state_space import (
    Grid,
    GridFunction,
    NormSpec,
    _as_axis_tuple,
    _is_finite_number,
    sample_function,
    with_values,
)

__all__ = [
    "HeatDriftParams",
    "GbmParams",
    "QUAD_POINTS",
    "heat_drift_step",
    "gbm_step",
    "make_heat_family",
    "make_identity_base_family",
    "kernel_family",
    "kernel_generator",
    "gbm_growth_rate",
]

# Gaussian cutoff, in standard deviations, read by perfbench's heat tap
# counts only; the package's one reach rule is _reach.
KERNEL_CUTOFF_SIGMAS = 8.0


@dataclass(frozen=True)
class HeatDriftParams:
    """Drift vector and diffusion scale(s) of the Gaussian transition kernel.

    drift and sigma are each a scalar or per-axis (state_space._as_axis_tuple):
    for dim 2 a scalar sigma is isotropic and a pair of per-axis scales a
    diagonal diffusion matrix.
    """

    drift: tuple[float, ...]
    sigma: tuple[float, ...]

    @staticmethod
    def create(drift, sigma, dim: int = 1) -> "HeatDriftParams":
        d, s = _as_axis_tuple(drift, dim), _as_axis_tuple(sigma, dim)
        if not all(map(_is_finite_number, d + s)):
            raise ValueError(f"drift and sigma must be finite numbers, got "
                             f"{drift!r}, {sigma!r}")
        return HeatDriftParams(drift=tuple(map(float, d)), sigma=tuple(map(float, s)))


@dataclass(frozen=True)
class GbmParams:
    """GBM drift/volatility of one member: mu and sigma finite numbers."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not all(map(_is_finite_number, (self.mu, self.sigma))):
            raise ValueError(f"GBM mu and sigma must be finite numbers, got "
                             f"{self.mu!r}, {self.sigma!r}")


def gbm_growth_rate(mu_sigma_pairs, p: float) -> float:
    """omega = max over the parameter set of p (mu + (p-1) sigma^2 / 2)^+."""
    return max(max(0.0, p * (mu + (p - 1) * sig * sig / 2.0))
               for mu, sig in mu_sigma_pairs)


# ---------------------------------------------------------------------------
# the nearest-neighbour chains and their step plans
# ---------------------------------------------------------------------------

def _jump_rates(drift, sigma, h):
    """Rates (up, down) per unit time of the nearest-neighbour chain on
    spacing h with drift b and diffusion scale sigma: the central rates
    sigma^2 / (2 h^2) +- b / (2 h) where they are monotone
    (|b| h <= sigma^2), else the upwind rates sigma^2 / (2 h^2) + b^+- / h.
    sigma = 0 gives the upwind Poisson shift, sigma = b = 0 the identity.
    The one place a chain is chosen, from the unscaled (b, sigma, h): a
    step of dt runs dt times these rates."""
    var = sigma * sigma
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
# (key, plan) of each slot's last plan, or the plane step's buffers, see
# _last_plan.
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


def _build_axis_plan(n: int, h: float, drift: np.ndarray, sigma: np.ndarray,
                     dt: float, ext_mode: str) -> _AxisPlan:
    """Compile the plan of one axis of n nodes for one dt: the chain rates of
    drift and sigma times dt are the expected jumps of one step."""
    up, down = _jump_rates(drift, sigma, h)
    rate, mean = dt * (up + down), dt * (up - down)
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
        psi = np.empty((drift.size, xi.size), complex)
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
    key = (grid.x_max[a], grid.n_points[a], t, drifts.tobytes(), sigmas.tobytes(),
           ext_mode)
    return _last_plan(("heat", a), key, lambda: _build_axis_plan(
        grid.n_points[a], grid.h[a], drifts, sigmas, t, ext_mode))


def _pad(ext: np.ndarray, n: int, clamp: bool) -> None:
    """Fill ext beyond its first n entries along axis 0 with zeros, or in
    clamp mode with entry n - 1 and then, wrapping round to entry 0, entry 0."""
    if not clamp:
        ext[n:] = 0.0
        return
    mid = n + (ext.shape[0] - n) // 2
    ext[n:mid] = ext[n - 1]
    ext[mid:] = ext[0]


def _apply_axis_plan(plan: _AxisPlan, data: np.ndarray, out: np.ndarray) -> None:
    """Apply a plan of C candidates along axis 0 of data, shape (n, m), into
    out, shape (C, n, m).  The inverse FFTs run over chunks of candidates, so
    no temporary holds the spectra of all of them."""
    if plan.clamp:
        ext = np.empty((plan.nfft, data.shape[1]))
        ext[:plan.n] = data
        _pad(ext, plan.n, True)
        freq = np.fft.rfft(ext, axis=0)
    else:
        freq = np.fft.rfft(data, plan.nfft, axis=0)
    spectra = plan.spectra[:, :, None]
    per = max(1, _CHUNK_BYTES // (32 * spectra.shape[1] * data.shape[1]))
    for c0 in range(0, spectra.shape[0], per):
        c = slice(c0, c0 + per)
        out[c] = np.fft.irfft(spectra[c] * freq, plan.nfft, axis=1)[:, :plan.n]


def _plane_buffers(shape: tuple) -> tuple:
    """The buffers of a plane step whose extended state has shape
    (nfft0, nfft1, m): the state ext, its rFFT half along axis 1, and its
    plane spectrum spec and one candidate's product work, both laid out
    (nfft1 // 2 + 1, m, nfft0) so that the axis-0 transforms of each
    candidate run over contiguous rows.  They are held in the slot "plane"
    from call to call, so that no step page-faults on fresh temporaries, and
    rebuilt only when the shape changes."""
    nfft0, nfft1, m = shape
    spectral = (nfft1 // 2 + 1, m, nfft0)
    return (np.empty(shape), np.empty((nfft0, nfft1 // 2 + 1, m), complex),
            np.empty(spectral, complex), np.empty(spectral, complex))


def _plane_step(plans: list, mesh: np.ndarray, out: np.ndarray) -> None:
    """Apply the plans of axes 0 and 1 to mesh, shape (n0, n1, m), into out,
    shape (C, n0, n1, m): candidate c runs the tensor product of row c of
    each plan.

    The state is extended along both axes and transformed once, rFFT along
    axis 1 and FFT along axis 0.  Each candidate multiplies that plane
    spectrum by its full-length axis-0 spectrum, the Hermitian completion of
    its rFFT row, and its axis-1 spectrum, then inverts by an FFT along
    axis 0, of which the n0 rows of the box are kept, and an inverse rFFT
    along axis 1, of which the n1 columns are kept.  Every transform and
    product writes into the held buffers.
    """
    p0, p1 = plans
    n0, n1 = p0.n, p1.n
    shape = (p0.nfft, p1.nfft, mesh.shape[2])
    ext, half, spec, work = _last_plan("plane", shape, lambda: _plane_buffers(shape))
    box = ext[:n0]
    box[:, :n1] = mesh
    _pad(box.swapaxes(0, 1), n1, p1.clamp)
    _pad(ext, n0, p0.clamp)
    np.fft.rfft(ext, axis=1, out=half)
    np.fft.fft(half, axis=0, out=spec.transpose(2, 0, 1))
    rows = np.concatenate(
        (p0.spectra, np.conj(p0.spectra[:, (p0.nfft - 1) // 2:0:-1])), axis=1)
    for c in range(out.shape[0]):
        np.multiply(spec, rows[c], out=work)
        np.multiply(work, p1.spectra[c, :, None, None], out=work)
        np.fft.ifft(work, axis=2, out=work)
        np.fft.irfft(work[:, :, :n0], p1.nfft, axis=0, out=box.transpose(1, 2, 0))
        out[c] = box[:, :n1]


def heat_multi_step(f: GridFunction, t: float, drifts: np.ndarray,
                    sigmas: np.ndarray) -> np.ndarray:
    """Batch of heat-with-drift steps sharing one input state.

    drifts and sigmas have shape (C, dim), one coefficient per candidate and
    axis (diagonal diffusion); other shapes raise ValueError.  Returns a
    fresh array of values of shape (C, n_nodes, m).  Each axis applies the
    cached plan of its dt: on a 1D grid all candidates at once, in chunks,
    and on a 2D grid through the plane step, which transforms the state
    once and inverts each candidate's product.
    """
    grid = f.grid
    dim = grid.dim
    if drifts.ndim != 2 or drifts.shape[1] != dim or sigmas.shape != drifts.shape:
        raise ValueError(f"drifts and sigmas must have shape (C, {dim}), got "
                         f"{drifts.shape} and {sigmas.shape}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    C = drifts.shape[0]
    if t == 0.0:
        return np.broadcast_to(f.values, (C, *f.values.shape)).copy()

    plans = [_axis_plan(grid, a, t, drifts[:, a], sigmas[:, a], f.extension_mode)
             for a in range(dim)]
    mesh = f.as_mesh()
    out = np.empty((C, *mesh.shape))
    if dim == 1:
        _apply_axis_plan(plans[0], mesh, out)
    else:
        _plane_step(plans, mesh, out)
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

# The one quadrature of the GBM step: the QUAD_POINTS Gauss-Hermite nodes z
# and their weights over sqrt(pi), which sum to 1; read-only.
QUAD_POINTS = 64
_HERMITE_Z, _HERMITE_Q = hermgauss(QUAD_POINTS)
_HERMITE_Q /= math.sqrt(math.pi)
_HERMITE_Z.flags.writeable = _HERMITE_Q.flags.writeable = False


@dataclass(frozen=True)
class _GbmPlan:
    """The GBM step of one member for one dt, on the x >= 0 half of the grid.

    Row k maps the half-grid values b = v[mid:] to the step at node mid + k:
    b[cells[k]] @ q + diff(b)[cells[k]] @ high[k], which is
    sum_q (q - q w) b[j] + q w b[j + 1] over its cells j, q the weights of
    the fixed rule _HERMITE_Q.  The nodes are exactly symmetric, so the same
    rows applied to the reversed values v[mid::-1] give the step at node
    mid - k.  cells and high are read-only (m, QUAD_POINTS) arrays.  cells
    is intp, which indexing reads in place; b.take(cells) would copy it on
    every call, because it is read-only.
    """

    cells: np.ndarray
    high: np.ndarray


def _build_gbm_plan(grid: Grid, t: float, params: GbmParams) -> _GbmPlan:
    """Compile E[f(x X_t)] on the x >= 0 half of the grid into a plan.

    Node x and quadrature factor F_q read f in the cell j of x F_q with
    weights 1 - w and w, w = (x F_q - x[j]) / (x[j+1] - x[j]) as in
    np.interp; beyond the box the last cell with w = 1 clamps.
    """
    x = grid.axis(0)
    mid = x.size // 2
    half = x[mid:]
    m = half.size
    factors = np.exp((params.mu - params.sigma**2 / 2.0) * t
                     + params.sigma * math.sqrt(2.0 * t) * _HERMITE_Z)
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
    high *= _HERMITE_Q
    cells.flags.writeable = high.flags.writeable = False
    return _GbmPlan(cells=cells, high=high)


def gbm_step(f: GridFunction, t: float, params: GbmParams) -> GridFunction:
    """E[f(x X_t)] by Gauss-Hermite quadrature in the Brownian variable.

    f is read through clamped linear interpolation; x = 0 maps to f(0).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if f.grid.dim != 1:
        raise ValueError("GBM operator is one-dimensional")
    if f.extension_mode != "clamp":
        raise ValueError("GBM operator requires clamp extension")
    if t == 0.0:
        return f
    plan = _last_plan(("gbm", params.mu, params.sigma), (f.grid, t),
                      lambda: _build_gbm_plan(f.grid, t, params))
    vals = f.values
    mid = vals.shape[0] // 2

    def half_step(b):
        return (b[plan.cells] @ _HERMITE_Q
                + np.einsum("kq,kq->k", np.diff(b)[plan.cells], plan.high))

    out = np.empty_like(vals)
    for comp in range(f.codomain_dim):
        out[mid:, comp] = half_step(vals[mid:, comp])
        out[:mid, comp] = half_step(vals[mid::-1, comp])[:0:-1]
    return with_values(f, out)


def kernel_generator(f: GridFunction, up, down, costs) -> GridFunction:
    """The generator of a candidate set: nodewise max over candidates c of

        sum_a r+_ca (f(x + h_a) - f(x)) + r-_ca (f(x - h_a) - f(x)) - cost_c,

    the generator of the chains the heat step runs, with the rate table
    up = r+, down = r- that kernel_family takes from _jump_rates.
    Neighbours outside the box read the state's extension, as the step
    does: 0, or the edge value under clamp.  up and down have shape
    (C, dim), one rate per candidate and axis, or (C, dim, n_nodes) for
    rates that vary by node (those of mu x and sigma x for GBM); costs has
    shape (C,).
    """
    grid = f.grid
    mesh = f.as_mesh()
    flat = (costs.size,) + (1,) * (grid.dim + 1)
    per_node = flat if up.ndim == 2 else (costs.size, *grid.n_points, 1)
    mode = "edge" if f.extension_mode == "clamp" else "constant"
    total = -costs.reshape(flat)
    for a in range(grid.dim):
        width = [(0, 0)] * mesh.ndim
        width[a] = (1, 1)
        ext = np.moveaxis(np.pad(mesh, width, mode=mode), a, 0)
        fwd = np.moveaxis(ext[2:], 0, a) - mesh
        bwd = np.moveaxis(ext[:-2], 0, a) - mesh
        total = (total + up[:, a].reshape(per_node) * fwd
                 + down[:, a].reshape(per_node) * bwd)
    vals = np.max(total, axis=0)
    return with_values(f, vals.reshape(grid.n_nodes, f.codomain_dim))


# ---------------------------------------------------------------------------
# family descriptors
# ---------------------------------------------------------------------------

def kernel_family(name: str, transitions, grid: Grid, norm: NormSpec, drifts,
                  sigmas, costs, params: dict, omega: float = 0.0,
                  zero: GridFunction | None = None,
                  comparison_mask: np.ndarray | None = None
                  ) -> GeneratingFamilyDescriptor:
    """Descriptor of a family I(t)f = max over candidates c of (linear
    Gaussian or lognormal transition of c - cost_c t).

    transitions(t, f) returns the candidates' linear batch B of shape
    (C, n_nodes, m), f's own values at t = 0.  The step is
    max_c (B_c - cost_c t), the costs subtracted from B in place unless
    every cost is 0, so a set with a cost returns a fresh batch; at t = 0 it
    returns f itself.  The conjugate step returns (I(t)f, I(t)(-f)) from
    the same B: the transitions are linear and IEEE rounding is symmetric
    in sign, so the batch of -f is -B bit for bit and
    I(t)(-f) = max_c (-B_c - cost_c t) = -min_c (B_c + cost_c t) exactly.
    That minimum runs over the candidates into one (n_nodes, m) array
    before the costs leave B: batch-sized temporaries cost as much in page
    faults as the second batch they save.

    drifts b and sigmas have shape (C, dim), or (C, dim, n_nodes) where they
    vary by node (mu x and sigma x for GBM), and costs shape (C,).
    kernel_generator reads the rates r+-_ca of _jump_rates(b, sigma, h),
    computed once here, as the declared generator.  The envelopes are
    alpha(R, t) = e^{omega t} R and beta(R, t) = e^{omega t}, and params
    records omega.  Per-node coefficients (lognormal transitions) take the
    caller's omega, declare no reach in x, and their comparisons go through
    comparison_mask.

    Gaussian kernels (one sigma per candidate and axis) declare reach(t),
    the largest over the axes a of _reach(t max_c (r+ + r-)_ca,
    t max_c |r+ - r-|_ca) h_a: beyond it one step of t moves at most
    _TAIL_MASS of any candidate's mass; it is 0 on an axis where no
    candidate moves.  They work out omega from the same rates: 0 in
    the sup norm, where each chain is positive of mass 1, and when no
    candidate moves.  In the weighted norm with p = 2 the weight is 1/w,
    w = 1 + |x|^2, and chain c maps w to exactly
    Q_c w = sum_a 2 x_a b_ca + S_c, S_c = sum_a (r+ + r-)_ca h_a^2, for
    central and upwind rates alike, as (r+ - r-)_ca h_a = b_ca.  With
    2|x| <= w and 1 <= w, Q_c w <= (|b_c| + S_c) w <= omega w for
    omega = 1 + max_c S_c + max_c |b_c|^2, so the positive e^{t Q_c} maps
    |f| <= ||f|| w, which the extension beyond the box keeps, below
    e^{omega t} ||f|| w.  The max over candidates of e^{t Q_c} f - cost_c t
    then moves by at most e^{omega t} ||f - g|| w between f and g, and
    I(t)0 = 0 (costs >= 0, one of them 0), which gives both envelopes.  No
    bound is proved for other p: a moving set raises ValueError there.
    """
    zero = sample_function("zero", grid) if zero is None else zero
    drifts, sigmas, costs = (np.asarray(v, dtype=np.float64)
                             for v in (drifts, sigmas, costs))
    up, down = _jump_rates(drifts, sigmas,
                           np.reshape(grid.h, (-1,) + (1,) * (drifts.ndim - 2)))
    if sigmas.ndim == 2:
        omega = 0.0
        if norm.kind == "weighted" and (drifts.any() or sigmas.any()):
            if norm.p != 2:
                raise ValueError(f"{name}: a moving Gaussian set needs the "
                                 f"weighted norm with p = 2, got p = {norm.p!r}")
            omega = 1.0 + float(np.max(np.sum((up + down) * np.square(grid.h), axis=1))
                                + np.max(np.sum(drifts**2, axis=1)))
        rate, mean = np.max(up + down, axis=0), np.max(np.abs(up - down), axis=0)

    def upper(batch, t):
        if costs.any():
            batch -= (costs * t)[:, None, None]
        return np.max(batch, axis=0)

    def step(t, f):
        if t == 0.0:
            return f  # an audit steps every sample at t = 0
        return with_values(f, upper(transitions(t, f), t))

    def conjugate_step(t, f):
        batch = transitions(t, f)
        low = np.full(batch.shape[1:], np.inf)
        for b, k in zip(batch, costs * t):
            np.minimum(low, b + k, out=low)
        return with_values(f, upper(batch, t)), with_values(f, -low)

    fam = GeneratingFamilyDescriptor(
        name=name,
        step=step,
        alpha=lambda R, t: math.exp(omega * t) * R,
        beta=lambda R, t: math.exp(omega * t),
        zero_state=zero,
        norm=norm,
        analytic_generator=lambda f: kernel_generator(f, up, down, costs),
        conjugate_step=conjugate_step,
        comparison_mask=comparison_mask,
        reach=None if sigmas.ndim != 2 else lambda t: max(
            _reach(t * r, t * m) * h if r else 0.0
            for r, m, h in zip(rate, mean, grid.h)),
        params={**params, "omega": omega},
    )
    check_family_contract(fam, probe_states=[zero])
    return fam


def make_heat_family(params: HeatDriftParams, norm: NormSpec,
                     grid: Grid) -> GeneratingFamilyDescriptor:
    """Heat-with-drift generating family, a single candidate without cost:
    a contraction in the sup norm, of growth rate omega (kernel_family) in
    the weighted norm with p = 2."""
    drift, sigma = np.array([params.drift]), np.array([params.sigma])
    return kernel_family(
        "heat", lambda t, f: heat_multi_step(f, t, drift, sigma), grid, norm,
        drift, sigma, [0.0],
        {"kind": "heat", "drift": params.drift, "sigma": params.sigma})


def make_identity_base_family(grid: Grid, norm: NormSpec) -> GeneratingFamilyDescriptor:
    """The identity semigroup I0(t) = id, a trivial linear base for
    Lipschitz perturbations: one candidate with no drift, no diffusion and
    no cost."""
    still = np.zeros((1, grid.dim))
    return kernel_family("identity_base", lambda t, f: f.values[None], grid, norm,
                         still, still, [0.0], {"kind": "identity_base"})
