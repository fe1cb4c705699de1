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
from scipy.special import gammaln, ive

from conftest import load_module, random_bumps
from semiflow import families_linear as fl
from semiflow.cli import parse_config, run_experiment
from semiflow.diagnostics import symmetric_lipschitz_certificate
from semiflow.families_linear import heat_multi_step
from semiflow.families_nonlinear import (
    SigmaLambdaSet,
    _g_expectation_candidates,
    make_gexp_family,
    quadratic_cost,
    user_lambda_grid,
)
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


# ---------------------------------------------------------------------------
# reach: the Chernoff bound of each kernel's law
# ---------------------------------------------------------------------------

def skellam_tail(k, up, down):
    """P(N+ - N- >= k) for Poisson N+- of means up and down: the Bessel
    weights of test_spectra_match_bessel_weights (the Poisson law when
    down = 0) summed far beyond k."""
    if up == 0.0:
        return 0.0
    j = np.arange(k, k + 40 + 20 * math.ceil(math.sqrt(up + down)))
    if down == 0.0:
        logp = j * math.log(up) - up - gammaln(j + 1)
    else:
        z = 2.0 * math.sqrt(up * down)
        with np.errstate(divide="ignore"):  # weights below the float range
            logp = j / 2.0 * math.log(up / down) - up - down + z + np.log(ive(j, z))
    return float(np.sum(np.exp(logp)))


def old_rule_nfft(n, h, shifts, s, ext_mode):
    """The FFT length of a fixed reach, |mean| + 8 sd and a 30-node tail."""
    up, down = fl._jump_rates(shifts, s * s, h)
    reach = math.ceil(np.max(np.abs(up - down) + 8.0 * np.sqrt(up + down))) + 30
    return fl._fft_size(n + (2 if ext_mode == "clamp" else 1) * reach)


def check_reach(n, h, drifts, sigmas, t, ext_mode):
    """The plan's reach holds at most _TAIL_MASS of each candidate's law on
    each side, each half of its extension covers the reach, and its FFT is
    no longer than under the old rule."""
    shifts, s = drifts * t, sigmas * math.sqrt(t)
    up, down = fl._jump_rates(shifts, s * s, h)
    reach = fl._reach(float(np.max(up + down)), float(np.max(np.abs(up - down))))
    for u, d in zip(up, down):
        assert skellam_tail(reach, u, d) <= fl._TAIL_MASS
        assert skellam_tail(reach, d, u) <= fl._TAIL_MASS
    plan = fl._build_axis_plan(n, h, shifts, s, ext_mode)
    assert (plan.nfft - n) // (2 if ext_mode == "clamp" else 1) >= reach
    assert plan.nfft <= old_rule_nfft(n, h, shifts, s, ext_mode)


DYADIC_DT = [2.0**-k for k in range(1, 17)]


@pytest.mark.parametrize("h", [0.01, 0.05])
def test_reach_of_upwind_shifts(h):
    # sigma = 0: the Poisson laws of pure drift, one-sided
    drifts = np.array([-3.0, -0.5, 0.0, 0.5, 2.0])
    for t in DYADIC_DT:
        check_reach(241, h, drifts, np.zeros(5), t, "clamp")
        check_reach(241, h, drifts[3:], np.zeros(2), t, "zero")


def test_reach_of_narrow_kernels():
    # rates <= 1e-2: Poisson tails, a few nodes long, far beyond 8 sd
    h = 0.1
    drifts = np.array([-0.5, 0.0, 0.1])
    sigmas = np.array([0.2, 0.3, 0.0])
    for t in (2.0**-16, 2.0**-14, 2.0**-12):
        up, down = fl._jump_rates(drifts * t, (sigmas * sigmas) * t, h)
        assert np.max(up + down) <= 1e-2
        check_reach(81, h, drifts, sigmas, t, "zero")
        check_reach(81, h, drifts, sigmas, t, "clamp")


@pytest.mark.parametrize("ext_mode", ["zero", "clamp"])
def test_reach_of_gexp_drift_grid(ext_mode):
    # the 41 drifts of certify_wide on its 1201 nodes, at every dyadic dt
    h = grid_create(1, 6.0, 1201).h[0]
    drifts = drift_grid(41)
    for t in DYADIC_DT:
        check_reach(1201, h, drifts, np.ones(41), t, ext_mode)


@pytest.mark.parametrize("pairs", [
    tuple((s, lam) for s in (0.5, 1.0) for lam in (-1.0, 0.0, 1.0)),
    ((0.5, -1.0), ((1.0, 0.25), (0.5, 1.0)), ((0.0, 2.0), 0.0)),
], ids=["plane_2d", "per_axis"])
def test_reach_of_2d_g_expectation_sets(pairs):
    # every axis of plane_2d's grid, 241^2 nodes on [-6, 6]^2
    g = grid_create(2, 6.0, 241)
    drifts, sigmas, _ = _g_expectation_candidates(SigmaLambdaSet(pairs=pairs), 2)
    for t in DYADIC_DT:
        for a in range(2):
            check_reach(241, g.h[a], drifts[:, a], sigmas[:, a], t, "clamp")


def test_reach_without_jumps():
    # identity candidates need no extension beyond one node
    assert fl._reach(0.0, 0.0) == 1
    plan = fl._build_axis_plan(41, 0.1, np.zeros(2), np.zeros(2), "clamp")
    assert plan.nfft == fl._fft_size(43)


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


# ---------------------------------------------------------------------------
# stepped spectra: one shared rate, evenly stepped means
# ---------------------------------------------------------------------------

@pytest.fixture
def stepped(monkeypatch):
    """Whether each plan built while the fixture is active took the stepped
    path of _stepped_spectra, in build order."""
    taken = []
    build = fl._stepped_spectra

    def spy(*args):
        spectra = build(*args)
        taken.append(spectra is not None)
        return spectra

    monkeypatch.setattr(fl, "_stepped_spectra", spy)
    return taken


def direct_spectra(plan, h, shifts, s):
    """np.exp(dt psi) of every candidate at the plan's rFFT frequencies, with
    the rates of _jump_rates."""
    up, down = fl._jump_rates(shifts, s * s, h)
    xi = np.arange(plan.nfft // 2 + 1) * (2.0 * math.pi / plan.nfft)
    half = np.sin(0.5 * xi)
    psi = np.empty((shifts.size, xi.size), complex)
    np.multiply.outer(up + down, -2.0 * half * half, out=psi.real)
    np.multiply.outer(up - down, np.sin(xi), out=psi.imag)
    return np.exp(psi)


def drift_grid(count, lo=-2.0, hi=2.0):
    """The drift grid a {min, max, step} lambda_grid config builds."""
    step = (hi - lo) / (count - 1)
    lams = np.round(np.arange(lo, hi + step / 2, step), 12)
    assert lams.size == count
    return lams


@pytest.mark.parametrize("ext_mode", ["zero", "clamp"])
@pytest.mark.parametrize("n", [81, 1201, 1601])
def test_stepped_spectra_match_direct_exp(n, ext_mode, stepped):
    g = grid_create(1, 6.0, n)
    h = g.h[0]
    for C in (3, 41, 201):
        lams = drift_grid(C)
        for t in [*2.0 ** np.arange(-16, 1, 3), 2.0]:
            shifts, s = lams * t, np.full(C, math.sqrt(t))
            plan = fl._build_axis_plan(n, h, shifts, s, ext_mode)
            assert stepped.pop()
            err = np.max(np.abs(plan.spectra - direct_spectra(plan, h, shifts, s)))
            assert err <= 1e-13, (C, t)


@pytest.mark.parametrize("t", [2.0**-16, 2.0**-6, 0.5])
def test_stepped_spectra_match_bessel_weights(t, stepped):
    # one sigma and evenly spaced central drifts: the Skellam law of
    # test_spectra_match_bessel_weights through the stepped path
    g = grid_create(1, 4.0, 81)
    h = g.h[0]
    drifts = np.linspace(-2.0, 2.0, 9)
    plan = fl._build_axis_plan(g.n_points[0], h, drifts * t, np.full(9, math.sqrt(t)),
                               "zero")
    assert stepped == [True]
    nfft = plan.nfft
    r = np.arange(nfft)
    k = np.where(r <= nfft // 2, r, r - nfft)
    for c, b in enumerate(drifts):
        up, down = (t * v for v in rates(b, 1.0, h))
        z = 2.0 * math.sqrt(up * down)
        law = (up / down) ** (k / 2.0) * ive(k, z) * math.exp(z - up - down)
        spectrum = nfft * np.fft.ifft(law)[:nfft // 2 + 1]
        assert np.max(np.abs(plan.spectra[c] - spectrum)) <= 1e-13


@pytest.mark.parametrize("drifts, sigmas", [
    ([-2.0, -1.0, 0.0, 0.5, 2.0], [1.0] * 5),             # non-uniform drifts
    ([-1.0, 0.0, 1.0, -1.0, 0.0, 1.0], [0.5] * 3 + [1.0] * 3),  # two sigmas
    ([-3.0, -1.5, 0.0, 1.5, 3.0], [0.3] * 5),             # upwind ends
    ([-1.0, 1.0], [1.0, 1.0]),                            # C <= 2
], ids=["nonuniform", "mixed_sigma", "upwind", "two"])
@pytest.mark.parametrize("t", [2.0**-10, 0.25])
def test_other_candidate_sets_keep_direct_exp(drifts, sigmas, t, stepped):
    g = grid_create(1, 4.0, 81)
    h = g.h[0]
    shifts, s = np.array(drifts) * t, np.array(sigmas) * math.sqrt(t)
    plan = fl._build_axis_plan(g.n_points[0], h, shifts, s, "clamp")
    assert stepped == [False]
    assert np.array_equal(plan.spectra, direct_spectra(plan, h, shifts, s))


def test_certify_wide_plans_are_stepped(tmp_path, stepped):
    # every plan of the certify_wide workload, a {min, max, step} drift grid
    # stepped through the certificate ladder, the audit and the generator
    workloads = load_module("perfbench/workloads.py")
    [exp] = workloads.make_workload("certify_wide", 1, tmp_path / "in", tmp_path / "out")
    fl._PLANS.clear()
    manifest = run_experiment(parse_config(exp["config"]), out_dir=tmp_path / "out")
    assert manifest["passed"]
    # at least one build for each of the run's 35 distinct dt
    assert len(stepped) >= 35 and all(stepped)


def test_plane_2d_plans_are_shorter(tmp_path, monkeypatch):
    # every plan of the plane_2d chain: 241 nodes per axis under clamp, six
    # (sigma, lambda) candidates at dt 2^-7 and 2^-8 (the fixed 30-node
    # tail margin made them 360 long)
    workloads = load_module("perfbench/workloads.py")
    exps = workloads.make_workload("plane_2d", 1, tmp_path / "in", tmp_path / "out")
    nffts = []
    build = fl._build_axis_plan

    def spy(*args):
        plan = build(*args)
        nffts.append(plan.nfft)
        return plan

    monkeypatch.setattr(fl, "_build_axis_plan", spy)
    fl._PLANS.clear()
    for exp in exps:
        run_experiment(parse_config(exp["config"]), out_dir=tmp_path / "out" / exp["id"])
    assert nffts and max(nffts) <= 320
