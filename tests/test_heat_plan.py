"""Differential test of the heat step plans against a per-candidate loop.

The reference applies the heat kernel one candidate at a time: it rebuilds
the weights on every call, convolves by a strided window product and applies
the boundary corrections row by row.  Its zero padding is placed with
clipping, so that shifts beyond the kernel reach are covered too.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import random_bumps
from semiflow import families_linear as fl
from semiflow.diagnostics import symmetric_lipschitz_certificate
from semiflow.families_linear import heat_multi_step
from semiflow.families_nonlinear import make_gexp_family, quadratic_cost, user_lambda_grid
from semiflow.state_space import GridFunction, grid_create


def reference_axis_apply(mesh, axis_nodes, h, t, shifts, sigmas, ext_mode):
    """Heat kernel along axis 0 of mesh for each candidate; shape (C, n, ...)."""
    n = mesh.shape[0]
    trailing = mesh.shape[1:]
    flat = mesh.reshape(n, -1)
    C = len(shifts)
    x0 = axis_nodes[0]
    xN = axis_nodes[-1]
    out = np.empty((C, n, flat.shape[1]))

    for c in range(C):
        s = sigmas[c] * math.sqrt(t)
        shift = shifts[c]
        if s == 0.0:
            pts = axis_nodes + shift
            u = (np.clip(pts, x0, xN) - x0) / h
            j = np.minimum(u.astype(np.int64), n - 2)
            w = (u - j)[:, None]
            vals = (1.0 - w) * flat[j] + w * flat[j + 1]
            if ext_mode == "zero":
                vals[(pts < x0) | (pts > xN)] = 0.0
            out[c] = vals
            continue

        reach = fl.KERNEL_CUTOFF_SIGMAS * s + h
        r_lo = math.ceil((-reach - shift) / h)
        r_hi = math.floor((reach - shift) / h)
        r = np.arange(r_lo, r_hi + 1)
        kernel = fl._hat_weights(r * h + shift, s, h)
        taps = kernel.size

        pad = np.zeros((n + taps - 1, flat.shape[1]))
        a, b = max(r_hi, 0), min(r_hi + n, pad.shape[0])
        if a < b:
            pad[a:b] = flat[a - r_hi:b - r_hi]
        windows = np.lib.stride_tricks.sliding_window_view(pad, taps, axis=0)
        res = windows @ kernel[::-1]

        means = axis_nodes + shift
        left = np.abs(means - x0) <= reach
        right = np.abs(means - xN) <= reach
        if np.any(left):
            m = means[left]
            ramp = fl._ramp_weights(x0, h, m, s, rising=True)
            if ext_mode == "clamp":
                res[left] += np.outer(ndtr((x0 - m) / s) - ramp, flat[0])
            else:
                res[left] -= np.outer(ramp, flat[0])
        if np.any(right):
            m = means[right]
            ramp = fl._ramp_weights(xN, h, m, s, rising=False)
            if ext_mode == "clamp":
                res[right] += np.outer(1.0 - ndtr((xN - m) / s) - ramp, flat[-1])
            else:
                res[right] -= np.outer(ramp, flat[-1])
        if ext_mode == "clamp":
            res[means < x0 - reach] = flat[0]
            res[means > xN + reach] = flat[-1]
        out[c] = res
    return out.reshape(C, n, *trailing)


def reference_multi_step(f, t, drifts, sigmas):
    drifts = np.atleast_2d(np.asarray(drifts, dtype=np.float64))
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.ndim == 1:
        sigmas = np.repeat(sigmas[:, None], f.grid.dim, axis=1)
    C = drifts.shape[0]
    mesh = f.as_mesh()
    g = f.grid
    if g.dim == 1:
        res = reference_axis_apply(mesh, g.axis(0), g.h[0], t, drifts[:, 0] * t,
                                   sigmas[:, 0], f.extension_mode)
        return res.reshape(C, g.n_nodes, f.codomain_dim)
    out = np.empty((C, *mesh.shape))
    for c in range(C):
        step0 = reference_axis_apply(mesh, g.axis(0), g.h[0], t,
                                     drifts[c:c + 1, 0] * t, sigmas[c:c + 1, 0],
                                     f.extension_mode)[0]
        step1 = reference_axis_apply(np.moveaxis(step0, 1, 0), g.axis(1), g.h[1], t,
                                     drifts[c:c + 1, 1] * t, sigmas[c:c + 1, 1],
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
    g = grid_create(1, 4.0, 321)
    f = _state(g, ext_mode, columns=2)
    drifts = np.array([[-2.0], [-0.5], [0.0], [0.7], [1.5], [0.3]])
    sigmas = np.array([1.0, 0.5, 0.0, 1.0, 0.25, 0.0])
    ref = reference_multi_step(f, t, drifts, sigmas)
    got = heat_multi_step(f, t, drifts, sigmas)
    assert np.max(np.abs(got - ref)) <= 1e-13


def test_narrow_and_wide_kernels():
    # from a few taps (t = 2^-14, h = 0.025) to a few hundred
    g = grid_create(1, 4.0, 321)
    f = _state(g, "clamp")
    drifts = np.array([[-1.0], [0.0], [1.0]])
    sigmas = np.ones(3)
    for t in (2.0**-14, 2.0**-10, 2.0**-4):
        ref = reference_multi_step(f, t, drifts, sigmas)
        got = heat_multi_step(f, t, drifts, sigmas)
        assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("ext_mode", ["zero", "clamp"])
def test_shifts_beyond_kernel_reach(ext_mode):
    # reach is 8 sqrt(t) + h = 0.9; the shifts move whole kernels past it,
    # and the largest moves them out of the box
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


def test_plan_cache_holds_one_plan_per_axis():
    g = grid_create(1, 6.0, 1201)
    fam = make_gexp_family(user_lambda_grid(np.linspace(-2.0, 2.0, 41)),
                           quadratic_cost(0.5), g)
    f = random_bumps(g, seed=3)
    fl._LAST_PLAN.clear()
    symmetric_lipschitz_certificate(fam, f, 0.125, [4, 5, 6, 7, 8])
    assert list(fl._LAST_PLAN) == [0]
    # the same dt reuses the held plan; a new dt replaces it
    drifts, sigmas = np.array([0.5, -0.5]), np.ones(2)
    plan = fl._axis_plan(g, 0, 0.25, drifts, sigmas, "zero")
    assert fl._axis_plan(g, 0, 0.25, drifts, sigmas, "zero") is plan
    assert fl._axis_plan(g, 0, 0.125, drifts, sigmas, "zero") is not plan
    assert list(fl._LAST_PLAN) == [0]
    assert fl._LAST_PLAN[0][1] is not plan
