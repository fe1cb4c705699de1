"""Differential test of the heat step plans against a per-candidate matrix
exponential.

The reference steps each candidate by scipy.linalg.expm of its chain's
tridiagonal generator, the jump rates written out here, on the axis padded
far beyond the kernel's reach with zeros or, under clamp, the edge values.
It shares no code with the FFT plans: no symbol, no FFT length, no wrap.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import ive

from conftest import random_bumps
from semiflow import families_linear as fl
from semiflow.diagnostics import symmetric_lipschitz_certificate
from semiflow.families_linear import heat_multi_step
from semiflow.families_nonlinear import make_gexp_family, quadratic_cost, user_lambda_grid
from semiflow.state_space import GridFunction, grid_create


def rates(b, sigma, h):
    """Up and down jump rates: central where |b| h <= sigma^2, else upwind."""
    var = sigma * sigma
    if abs(b) * h <= var:
        return var / (2 * h * h) + b / (2 * h), var / (2 * h * h) - b / (2 * h)
    return var / (2 * h * h) + max(b, 0.0) / h, var / (2 * h * h) + max(-b, 0.0) / h


def reference_axis_apply(mesh, h, t, drifts, sigmas, ext_mode):
    """The chain step along axis 0 of mesh for each candidate; shape (C, n, ...)."""
    n = mesh.shape[0]
    trailing = mesh.shape[1:]
    flat = mesh.reshape(n, -1)
    out = np.empty((len(drifts), n, flat.shape[1]))
    for c, (b, sigma) in enumerate(zip(drifts, sigmas)):
        up, down = rates(b, sigma, h)
        jumps = t * (up + down)
        pad = math.ceil(abs(b) * t / h + 10 * math.sqrt(jumps)) + 20
        size = n + 2 * pad
        gen = (np.diag(np.full(size - 1, up), 1) + np.diag(np.full(size - 1, down), -1)
               - np.diag(np.full(size, up + down)))
        ext = np.zeros((size, flat.shape[1]))
        ext[pad:pad + n] = flat
        if ext_mode == "clamp":
            ext[:pad] = flat[0]
            ext[pad + n:] = flat[-1]
        out[c] = (expm(t * gen) @ ext)[pad:pad + n]
    return out.reshape(len(drifts), n, *trailing)


def reference_multi_step(f, t, drifts, sigmas):
    drifts = np.atleast_2d(np.asarray(drifts, dtype=np.float64))
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.ndim == 1:
        sigmas = np.repeat(sigmas[:, None], f.grid.dim, axis=1)
    C = drifts.shape[0]
    mesh = f.as_mesh()
    g = f.grid
    if g.dim == 1:
        res = reference_axis_apply(mesh, g.h[0], t, drifts[:, 0], sigmas[:, 0],
                                   f.extension_mode)
        return res.reshape(C, g.n_nodes, f.codomain_dim)
    out = np.empty((C, *mesh.shape))
    for c in range(C):
        step0 = reference_axis_apply(mesh, g.h[0], t, drifts[c:c + 1, 0],
                                     sigmas[c:c + 1, 0], f.extension_mode)[0]
        step1 = reference_axis_apply(np.moveaxis(step0, 1, 0), g.h[1], t,
                                     drifts[c:c + 1, 1], sigmas[c:c + 1, 1],
                                     f.extension_mode)[0]
        out[c] = np.moveaxis(step1, 0, 1)
    return out.reshape(C, g.n_nodes, f.codomain_dim)


def _state(grid, ext_mode, seed=7, columns=1):
    vals = np.stack([random_bumps(grid, seed + k).values[:, 0] + 0.3 * k
                     for k in range(columns)], axis=1)
    return GridFunction(grid, columns, vals, ext_mode)


@pytest.mark.parametrize("ext_mode", ["zero", "clamp"])
@pytest.mark.parametrize("t", [2.0**-14, 2.0**-6, 0.5])
def test_1d_mixed_candidates(ext_mode, t):
    # central, upwind (1.5, 0.25), Poisson shift (0.3, 0) and identity (0, 0)
    g = grid_create(1, 4.0, 81)
    f = _state(g, ext_mode, columns=2)
    drifts = np.array([[-2.0], [-0.5], [0.0], [0.7], [1.5], [0.3]])
    sigmas = np.array([1.0, 0.5, 0.0, 1.0, 0.25, 0.0])
    ref = reference_multi_step(f, t, drifts, sigmas)
    got = heat_multi_step(f, t, drifts, sigmas)
    assert np.max(np.abs(got - ref)) <= 1e-13


def test_narrow_and_wide_kernels():
    # from kernels far narrower than a node, sigma^2 dt / h^2 <= 1e-2, whose
    # taps are a Poisson tail, to a hundred nodes wide; the last two
    # candidates are upwind (|b| h > sigma^2)
    g = grid_create(1, 4.0, 81)
    h = g.h[0]
    f = _state(g, "clamp")
    drifts = np.array([[-1.0], [0.0], [1.0], [1.0], [-4.0]])
    sigmas = np.array([1.0, 1.0, 0.5, 0.1, 0.3])
    assert np.all(np.abs(drifts[3:, 0]) * h > sigmas[3:] ** 2)
    assert 2.0**-16 / h**2 <= 1e-2
    for t in (2.0**-16, 2.0**-10, 2.0**-4, 0.5):
        ref = reference_multi_step(f, t, drifts, sigmas)
        got = heat_multi_step(f, t, drifts, sigmas)
        assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("ext_mode", ["zero", "clamp"])
def test_shifts_beyond_kernel_reach(ext_mode):
    # the shifts move whole kernels past their width, and the largest
    # moves them out of the box
    g = grid_create(1, 2.0, 41)
    f = _state(g, ext_mode)
    t = 0.01
    drifts = np.array([[-450.0], [-120.0], [0.0], [120.0], [450.0], [150.0]])
    sigmas = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    ref = reference_multi_step(f, t, drifts, sigmas)
    got = heat_multi_step(f, t, drifts, sigmas)
    assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("ext_mode", ["zero", "clamp"])
def test_2d_anisotropic_mixed(ext_mode):
    g = grid_create(2, (3.0, 2.0), (61, 41))
    f = _state(g, ext_mode)
    drifts = np.array([[0.0, 0.0], [1.0, -0.5], [-1.0, 2.0], [0.5, 0.5]])
    sigmas = np.array([[1.0, 1.0], [0.5, 1.0], [1.0, 0.0], [0.0, 0.0]])
    for t in (2.0**-8, 0.25):
        ref = reference_multi_step(f, t, drifts, sigmas)
        got = heat_multi_step(f, t, drifts, sigmas)
        assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("t", [2.0**-16, 2.0**-6, 0.5])
def test_spectra_match_bessel_weights(t):
    # the chain's displacement K = N+ - N- has the Skellam law
    # P(K = k) = (m+/m-)^{k/2} e^{-(m+ + m-)} I_k(2 sqrt(m+ m-)), the discrete
    # Gaussian e^{-lam} I_k(lam) without drift; the plan holds E[e^{i xi K}]
    g = grid_create(1, 4.0, 81)
    h = g.h[0]
    drifts = np.array([0.0, 0.0, 1.0, -0.5, 2.0])
    sigmas = np.array([1.0, 0.25, 1.0, 0.5, 0.3])  # the last is upwind
    plan = fl._build_axis_plan(g.n_points[0], h, drifts * t, sigmas * math.sqrt(t),
                               "zero")
    nfft = plan.nfft
    r = np.arange(nfft)
    k = np.where(r <= nfft // 2, r, r - nfft)  # index r holds displacement k
    for c, (b, sigma) in enumerate(zip(drifts, sigmas)):
        up, down = (t * v for v in rates(b, sigma, h))
        z = 2.0 * math.sqrt(up * down)
        law = (up / down) ** (k / 2.0) * ive(k, z) * math.exp(z - up - down)
        spectrum = nfft * np.fft.ifft(law)[:nfft // 2 + 1]
        assert np.max(np.abs(plan.spectra[c] - spectrum)) <= 1e-13


def test_plan_cache_holds_one_plan_per_axis():
    g = grid_create(1, 6.0, 1201)
    fam = make_gexp_family(user_lambda_grid(np.linspace(-2.0, 2.0, 41)),
                           quadratic_cost(0.5), g)
    f = random_bumps(g, seed=3)
    fl._PLANS.clear()
    symmetric_lipschitz_certificate(fam, f, 0.125, [4, 5, 6, 7, 8])
    assert list(fl._PLANS) == [("heat", 0)]
    # the same dt reuses the held plan; a new dt replaces it
    drifts, sigmas = np.array([0.5, -0.5]), np.ones(2)
    plan = fl._axis_plan(g, 0, 0.25, drifts, sigmas, "zero")
    assert fl._axis_plan(g, 0, 0.25, drifts, sigmas, "zero") is plan
    assert fl._axis_plan(g, 0, 0.125, drifts, sigmas, "zero") is not plan
    assert list(fl._PLANS) == [("heat", 0)]
    assert fl._PLANS["heat", 0][1] is not plan
