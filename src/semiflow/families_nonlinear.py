"""Nonlinear generating families.

All of these are one-step operators built from the linear kernels:

* convex drift-control expectation: I(t)f = sup_lambda [heat shift by drift
  lambda, minus running cost L(lambda) t], with the supremum taken over a
  finite drift grid.  The generator is (1/2) Lap f + H(grad f) where H is the
  convex conjugate of the cost, discretized on the same drift grid.
* sublinear diffusion/drift expectation: I(t)f = sup over (sigma, lambda)
  pairs of Gaussian transition operators.
* robust GBM: I(t)f = sup over (mu, sigma) pairs of GBM transition operators
  on the weighted space.
* explicit Euler steps I(t)x = x + t f(x) for an ODE vector field.
* Lipschitz perturbations I(t)f = I0(t)f + t Psi(f) of a linear base
  semigroup (heat or identity).

The first three are one candidate set each: the nodewise max over
candidates c of (a linear Gaussian or lognormal transition - cost_c t).  Each
builds its candidates' drifts, scales and costs once and passes their linear
batch, heat_multi_step or the members' gbm_step values, to
families_linear.kernel_family.  That builds the step and the conjugate step,
the images of f and -f from one batch, and wraps them as a
GeneratingFamilyDescriptor with envelopes alpha(R, t) = e^{omega t} R,
beta(R, t) = e^{omega t}, omega worked out from the candidates (robust GBM's
given), and, as the generator, the same max over the generators of the
candidates' grid chains minus their costs.  The Euler and perturbation
families share one pair of envelopes, _perturbation_envelopes (an Euler step
perturbs the identity), and declare their own generators and no conjugate
step; a perturbation family's params carry its base family and Psi.  Integer
and per-axis inputs follow the rules of state_space (_is_integer,
_as_axis_tuple).
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chernoff import GeneratingFamilyDescriptor, check_family_contract
from .families_linear import (
    GbmParams,
    gbm_growth_rate,
    gbm_step,
    heat_multi_step,
    kernel_family,
)
from .state_space import (
    Grid,
    GridFunction,
    NormSpec,
    VectorState,
    _as_axis_tuple,
    _is_finite_number,
    _is_integer,
    distance as grid_distance,
    sample_function,
    with_values,
)

__all__ = [
    "CostFunction",
    "LambdaGrid",
    "SigmaLambdaSet",
    "PerturbationSpec",
    "VectorField",
    "quadratic_cost",
    "indicator_cost",
    "cost_preset",
    "COST_PRESETS",
    "effective_lambda_radius",
    "make_gexp_family",
    "auto_lambda_grid",
    "user_lambda_grid",
    "make_g_expectation_family",
    "make_robust_gbm_family",
    "gbm_trusted_radius",
    "ode_euler_step",
    "make_ode_family",
    "vector_field_preset",
    "VECTOR_FIELD_PRESETS",
    "perturbation_step",
    "make_perturbation_family",
    "perturbation_preset",
    "PERTURBATION_PRESETS",
    "telescoping_residual",
    "DEFAULT_LAMBDA_POINTS",
]

DEFAULT_LAMBDA_POINTS = 41
GBM_ESCAPE_THRESHOLD = 1e-10
# upper-tail normal quantile at the escape threshold
_Z_ESCAPE = -statistics.NormalDist().inv_cdf(GBM_ESCAPE_THRESHOLD)


# ---------------------------------------------------------------------------
# cost functions and drift grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostFunction:
    """Running cost L >= 0 with an anchor L(anchor) = 0 and a superlinearity
    witness: witness_radius(c) returns R with L(lam) >= c |lam| for |lam| >= R
    (math.inf if the witness cannot provide one)."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray
    witness_radius: Callable[[float], float]
    name: str = "cost"

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.anchor, dtype=np.float64))
        object.__setattr__(self, "anchor", a)
        if float(self.evaluate(a[None, :])[0]) != 0.0:
            raise ValueError("cost must vanish at its anchor")


def quadratic_cost(a: float, dim: int = 1) -> CostFunction:
    """L(lam) = a |lam|^2; the witness radius solves a r^2 = c r, i.e. r = c/a."""
    if not (_is_finite_number(a) and a > 0):
        raise ValueError(f"quadratic coefficient must be a finite number > 0, got {a!r}")

    def ev(lams):
        lams = np.atleast_2d(lams)
        return a * np.sum(lams * lams, axis=-1)

    return CostFunction(evaluate=ev, anchor=np.zeros(dim),
                        witness_radius=lambda c: c / a,
                        name=f"quadratic_{a}")


def indicator_cost(lo: float, hi: float) -> CostFunction:
    """L = 0 on [lo, hi] and +inf outside (one-dimensional drift sets)."""
    if not (all(map(_is_finite_number, (lo, hi))) and lo <= hi):
        raise ValueError(f"need finite numbers lo <= hi, got {lo!r}, {hi!r}")
    anchor = min(max(0.0, lo), hi)

    def ev(lams):
        lams = np.atleast_2d(lams)[:, 0]
        return np.where((lams >= lo) & (lams <= hi), 0.0, np.inf)

    return CostFunction(evaluate=ev, anchor=np.array([anchor]),
                        witness_radius=lambda c: max(abs(lo), abs(hi)),
                        name=f"indicator_{lo}_{hi}")


# Every parameter of each cost preset, with its default.
COST_PRESETS = {"quadratic": {"a": 0.5}, "indicator": {"lo": -1.0, "hi": 1.0}}


def _preset_params(presets: dict, name: str, params: dict) -> dict:
    """The defaults of presets[name] updated by params, each one of its own."""
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}")
    for key in params:
        if key not in presets[name]:
            raise ValueError(f"preset {name!r} has no parameter {key!r}")
    return {**presets[name], **params}


def cost_preset(name: str, **params) -> CostFunction:
    """The preset `name` of COST_PRESETS, its defaults updated by params."""
    params = _preset_params(COST_PRESETS, name, params)
    return (quadratic_cost if name == "quadratic" else indicator_cost)(**params)


@dataclass(frozen=True)
class LambdaGrid:
    """Finite drift candidate set.  A gexp family needs a drift of cost
    exactly 0 in it (the cost anchor, or for an indicator cost any drift in
    [lo, hi]), so that I(t)0 = 0 and alpha(R, t) = R hold."""

    lambdas: np.ndarray  # (K, d)
    provenance: str = "user"

    def __post_init__(self):
        # dtype object keeps each entry as given: a bool stays a bool
        arr = np.atleast_2d(np.asarray(self.lambdas, dtype=object))
        if arr.shape[0] == 0:
            raise ValueError("drift grid must be nonempty")
        if not all(map(_is_finite_number, arr.flat)):
            raise ValueError("drift grid entries must be finite numbers")
        object.__setattr__(self, "lambdas", arr.astype(np.float64))

    @property
    def dim(self) -> int:
        return self.lambdas.shape[1]


def user_lambda_grid(values, dim: int = 1) -> LambdaGrid:
    arr = np.asarray(values, dtype=object)
    if arr.ndim == 1:
        arr = arr[:, None] if dim == 1 else arr.reshape(-1, dim)
    return LambdaGrid(lambdas=arr, provenance="user")


def effective_lambda_radius(lip_c: float, cost: CostFunction) -> float:
    """Smallest probed radius beyond which every drift candidate is dominated.

    A drift lam is dominated as soon as L(lam) >= c |lam - anchor|; the
    superlinearity witness bounds the search region, and the radius is then
    refined by a scan of 4001 points.  Only 1D drift sets are scanned; for
    higher dimensions the witness radius itself is returned.
    """
    if lip_c < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    anchor_norm = float(np.linalg.norm(cost.anchor))
    if lip_c == 0.0:
        return anchor_norm
    if anchor_norm == 0.0:
        cap = cost.witness_radius(lip_c)
    else:
        cap = max(cost.witness_radius(2.0 * lip_c), 2.0 * anchor_norm)
    if not math.isfinite(cap):
        raise ValueError(
            "superlinearity witness insufficient; provide an explicit drift grid"
        )
    cap = max(cap, anchor_norm)
    if cost.anchor.size > 1:
        return cap
    lam = np.linspace(-cap, cap, 4001)[:, None]
    gap = cost.evaluate(lam) - lip_c * np.abs(lam[:, 0] - cost.anchor[0])
    violating = np.abs(lam[:, 0])[gap < 0]
    if violating.size == 0:
        return anchor_norm
    return float(max(np.max(violating), anchor_norm))


def auto_lambda_grid(cost: CostFunction, lip_c: float) -> LambdaGrid:
    """Uniform 1D drift grid of DEFAULT_LAMBDA_POINTS drifts on [-R, R] for
    the effective radius R, with the anchor inserted if it is not already a
    grid point."""
    R = effective_lambda_radius(lip_c, cost)
    if R == 0.0:
        lams = cost.anchor[None, :]
    else:
        lams = np.linspace(-R, R, DEFAULT_LAMBDA_POINTS)[:, None]
        if not np.any(np.all(lams == cost.anchor[None, :], axis=1)):
            lams = np.vstack([lams, cost.anchor[None, :]])
    return LambdaGrid(lambdas=lams, provenance=f"auto_radius_{R:.6g}")


# ---------------------------------------------------------------------------
# convex drift-control expectation
# ---------------------------------------------------------------------------

def _gexp_candidates(lambda_grid: LambdaGrid, cost: CostFunction, dim: int):
    """(drifts, sigmas, costs) of a drift grid: unit diffusion, finite costs."""
    lams = lambda_grid.lambdas
    costs = cost.evaluate(lams)
    if not np.all(np.isfinite(costs)):
        raise ValueError("all drift candidates must have finite cost")
    if costs.min() != 0.0:
        raise ValueError("the drift grid needs a drift of cost 0; its smallest "
                         f"cost is {float(costs.min())!r}")
    if lams.shape[1] != dim:
        raise ValueError("drift dimension does not match the grid")
    return lams, np.ones(lams.shape), costs


def make_gexp_family(lambda_grid: LambdaGrid, cost: CostFunction, grid: Grid,
                     norm: NormSpec | None = None) -> GeneratingFamilyDescriptor:
    """Convex expectation family, by default on the sup-norm space.

    A contraction there (alpha(R,t) = R, beta = 1), of growth rate omega
    (kernel_family) in the weighted norm with p = 2; the generator is the
    max over the drift grid of (1/2) Lap f + <lam, grad f> - L(lam), that
    is (1/2) Lap f + H(grad f) with H the drift-grid conjugate of the cost,
    so that generator comparisons see the same discretization as the step.
    """
    drifts, sigmas, costs = _gexp_candidates(lambda_grid, cost, grid.dim)
    return kernel_family(
        "gexp", lambda t, f: heat_multi_step(f, t, drifts, sigmas), grid,
        norm or NormSpec(kind="sup"), drifts, sigmas, costs,
        {"kind": "gexp", "cost": cost.name,
         "n_lambda": int(lambda_grid.lambdas.shape[0]),
         "lambda_provenance": lambda_grid.provenance})


# ---------------------------------------------------------------------------
# sublinear diffusion/drift expectation and robust GBM
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaLambdaSet:
    """Finite uncertainty set of (sigma, lambda) pairs for the diffusion/drift
    expectation."""

    pairs: tuple

    def __post_init__(self):
        if len(self.pairs) == 0:
            raise ValueError("uncertainty set must be nonempty")
        for p in self.pairs:
            # dtype object keeps each entry as given: a bool stays a bool,
            # and a nested list stays nested, which no scalar or per-axis
            # value is
            parts = [np.asarray(part, dtype=object) for part in (p[0], p[1])]
            if not all(a.ndim <= 1 and all(map(_is_finite_number, a.flat))
                       for a in parts):
                raise ValueError("uncertainty set entries must be finite numbers, "
                                 f"got {p!r}")


def _g_expectation_candidates(sigma_lambda_set: SigmaLambdaSet, dim: int):
    """(drifts, sigmas, costs) of the (sigma, lambda) pairs; each sigma and
    lambda is a scalar or per-axis (state_space._as_axis_tuple), and no pair
    has a cost."""
    pairs = sigma_lambda_set.pairs
    return (np.array([_as_axis_tuple(lam, dim) for _, lam in pairs], dtype=float),
            np.array([_as_axis_tuple(sig, dim) for sig, _ in pairs], dtype=float),
            np.zeros(len(pairs)))


def make_g_expectation_family(sigma_lambda_set: SigmaLambdaSet, grid: Grid,
                              norm: NormSpec | None = None
                              ) -> GeneratingFamilyDescriptor:
    """Sublinear expectation family.

    Default is the sup-norm space, where the sup of Gaussian transitions is a
    contraction (alpha(R,t) = R, beta = 1).  With the weighted norm (p = 2)
    the envelopes grow like e^{omega t}, omega from kernel_family.
    """
    norm = norm or NormSpec(kind="sup")
    drifts, sigmas, costs = _g_expectation_candidates(sigma_lambda_set, grid.dim)
    return kernel_family(
        "g_expectation", lambda t, f: heat_multi_step(f, t, drifts, sigmas),
        grid, norm, drifts, sigmas, costs,
        {"kind": "g_expectation",
         "pairs": [tuple(c) for c in np.hstack([sigmas, drifts]).tolist()],
         "norm": norm.kind})


def gbm_trusted_radius(mu_sigma_pairs, x_max: float, horizon: float) -> float:
    """Radius inside which the lognormal mass escaping the box stays below
    the escape threshold for every composition of steps up to the horizon."""
    drift = max(0.0, max((mu - sig * sig / 2.0) for mu, sig in mu_sigma_pairs))
    sig_max = max(abs(sig) for _, sig in mu_sigma_pairs)
    return x_max * math.exp(-drift * horizon - _Z_ESCAPE * sig_max * math.sqrt(horizon))


def _gbm_escape_mass(x: float, t: float, mu: float, sigma: float,
                     x_max: float) -> float:
    """P(x X_t > x_max) at a node x >= 0, X_t the one-step lognormal factor."""
    if x == 0.0 or sigma == 0.0 or t == 0.0:
        return float(x * math.exp(mu * t) > x_max)
    z = (math.log(x_max / x) - (mu - sigma * sigma / 2.0) * t) / (
        abs(sigma) * math.sqrt(t))
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def make_robust_gbm_family(pairs, grid: Grid, trust_horizon: float,
                           quad_points: int = GbmParams.quad_points,
                           p: float = NormSpec.p) -> GeneratingFamilyDescriptor:
    """Robust GBM: nodewise max of GBM transitions over (mu, sigma) pairs.

    The norm is the weighted one with exponent p > 1; envelopes
    alpha(R,t) = e^{omega t} R and beta(R,t) = e^{omega t} with omega the
    max growth rate over the pair set; the generator is the max of
    mu x f' + sigma^2 x^2 f''/2, through the per-node chain rates of
    kernel_generator.  Each pair is a GbmParams member of quad_points
    Gauss-Hermite nodes.  Comparisons are restricted to the nodes within
    gbm_trusted_radius of the trust horizon (a finite number >= 0), and a
    step warns (never fails) when a member's one-step escape mass at the
    outermost of them, where the mass is largest, exceeds the threshold.
    """
    if grid.dim != 1:
        raise ValueError("GBM operator is one-dimensional")
    if not (_is_finite_number(trust_horizon) and trust_horizon >= 0):
        raise ValueError("trust horizon must be a finite number >= 0, got "
                         f"{trust_horizon!r}")
    members = [GbmParams(mu=mu, sigma=sig, quad_points=quad_points)
               for mu, sig in pairs]
    if not members:
        raise ValueError("the (mu, sigma) set must be nonempty")
    pairs = [(mp.mu, mp.sigma) for mp in members]
    x_max = grid.x_max[0]
    radius = gbm_trusted_radius(pairs, x_max, trust_horizon)
    x = grid.axis(0)
    trusted = np.abs(x) <= radius
    edge = float(np.max(np.abs(x[trusted])))

    def transitions(t, f):
        if any(_gbm_escape_mass(edge, t, mu, sig, x_max) > GBM_ESCAPE_THRESHOLD
               for mu, sig in pairs):
            warnings.warn("robust_gbm: escaping lognormal mass exceeds "
                          "threshold inside the trusted interior", stacklevel=3)
        return np.array([gbm_step(f, t, mp).values for mp in members])

    mus, sigs = np.array(pairs).T
    return kernel_family(
        "robust_gbm", transitions, grid, NormSpec(kind="weighted", p=p),
        np.multiply.outer(mus, x)[:, None], np.multiply.outer(sigs, x)[:, None],
        np.zeros(len(pairs)),
        {"kind": "robust_gbm", "pairs": pairs, "p": p, "trusted_radius": radius},
        omega=gbm_growth_rate(pairs, p),
        zero=GridFunction(grid, 1, np.zeros((grid.n_nodes, 1)),
                          extension_mode="clamp"),
        comparison_mask=trusted)


# ---------------------------------------------------------------------------
# explicit Euler ODE steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorField:
    """f: R^d -> R^d with linear growth |f(x)| <= K(1+|x|) and a local
    Lipschitz profile R -> L_R (non-decreasing)."""

    func: Callable[[np.ndarray], np.ndarray]
    dim: int
    growth_k: float
    lip_profile: Callable[[float], float]
    name: str = "field"

    def __post_init__(self):
        if not (_is_integer(self.dim) and self.dim >= 1):
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")


# Every parameter of each vector field preset, with its default.
VECTOR_FIELD_PRESETS = {"neg_identity": {"dim": 1}, "rotation": {}}


def vector_field_preset(name: str, **params) -> VectorField:
    """The preset `name` of VECTOR_FIELD_PRESETS, its defaults updated by params."""
    params = _preset_params(VECTOR_FIELD_PRESETS, name, params)
    if name == "neg_identity":
        return VectorField(func=lambda x: -x, dim=params["dim"], growth_k=1.0,
                           lip_profile=lambda R: 1.0, name="neg_identity")
    return VectorField(func=lambda x: np.array([-x[1], x[0]]), dim=2, growth_k=1.0,
                       lip_profile=lambda R: 1.0, name="rotation")


def _perturbation_envelopes(omega: float, growth_k: float, lip_profile) -> dict:
    """The envelopes alpha and beta, as descriptor fields, of a step
    I(t)x = I0(t)x + t Psi(x) over a linear base I0 of growth rate omega,
    Psi of linear growth growth_k = K and local Lipschitz profile L_R:
    alpha(R, t) = e^{(omega + 2K)t} max(R, 1), beta(R, t) = e^{(omega + L_R)t}.
    An Euler step x + t f(x) is the perturbation of the identity, omega = 0,
    by f."""
    return {"alpha": lambda R, t: math.exp((omega + 2.0 * growth_k) * t) * max(R, 1.0),
            "beta": lambda R, t: math.exp((omega + lip_profile(R)) * t)}


def ode_euler_step(x: VectorState, t: float, vf: VectorField) -> VectorState:
    """Explicit Euler: x + t f(x)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return x
    return VectorState(x.coordinates + t * np.asarray(vf.func(x.coordinates)))


def make_ode_family(vf: VectorField) -> GeneratingFamilyDescriptor:
    """Euler-step family, the perturbation of the identity by the field:
    alpha(R,t) = e^{2Kt} max(R,1) and beta(R,t) = e^{L_R t}
    (_perturbation_envelopes with omega = 0); the generator is the vector
    field itself."""
    zero = VectorState(np.zeros(vf.dim))

    fam = GeneratingFamilyDescriptor(
        name=f"ode_{vf.name}",
        step=lambda t, x: ode_euler_step(x, t, vf),
        **_perturbation_envelopes(0.0, vf.growth_k, vf.lip_profile),
        zero_state=zero,
        analytic_generator=lambda x: VectorState(np.asarray(vf.func(x.coordinates))),
        params={"kind": "ode", "field": vf.name, "growth_k": vf.growth_k},
    )
    check_family_contract(fam, probe_states=[zero, VectorState(np.ones(vf.dim))])
    return fam


# ---------------------------------------------------------------------------
# Lipschitz perturbations of a linear base semigroup
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """Componentwise reaction term Psi with Psi(0) = 0, linear growth
    |Psi(u)| <= K(1+|u|) and a local Lipschitz profile R -> L_R."""

    psi: Callable[[np.ndarray], np.ndarray]
    growth_k: float
    lip_profile: Callable[[float], float]
    name: str = "psi"


# Every parameter of each perturbation preset, with its default.
PERTURBATION_PRESETS = {"sin": {}, "linear": {"c": 1.0}, "neg_identity": {},
                        "cubic": {"k": 1.0}}


def perturbation_preset(name: str, **params) -> PerturbationSpec:
    """The preset `name` of PERTURBATION_PRESETS, its defaults updated by params."""
    params = _preset_params(PERTURBATION_PRESETS, name, params)
    if name == "sin":
        return PerturbationSpec(psi=np.sin, growth_k=1.0,
                                lip_profile=lambda R: 1.0, name="sin")
    if name == "linear":
        c = params["c"]
        return PerturbationSpec(psi=lambda u: c * u, growth_k=abs(c),
                                lip_profile=lambda R: abs(c), name=f"linear_{c}")
    if name == "neg_identity":
        return PerturbationSpec(psi=lambda u: -u, growth_k=1.0,
                                lip_profile=lambda R: 1.0, name="neg_identity")
    # cubic: rejected by the growth probe; kept as a negative example
    return PerturbationSpec(psi=lambda u: u**3, growth_k=params["k"],
                            lip_profile=lambda R: 3.0 * R * R, name="cubic")


_PROBE_VALUES = np.linspace(-20.0, 20.0, 4001)


def _probe_perturbation(pert: PerturbationSpec):
    vals = np.asarray(pert.psi(_PROBE_VALUES))
    if float(np.asarray(pert.psi(np.zeros(1)))[0]) != 0.0:
        raise ValueError(f"{pert.name}: Psi(0) must be 0")
    bound = pert.growth_k * (1.0 + np.abs(_PROBE_VALUES))
    if np.any(np.abs(vals) > bound * (1 + 1e-12)):
        raise ValueError(
            f"{pert.name}: growth probe found |Psi(u)| > K(1+|u|)"
        )


def _is_linear_base(base: GeneratingFamilyDescriptor) -> bool:
    return base.params.get("kind") in ("heat", "identity_base")


def perturbation_step(f: GridFunction, t: float,
                      base_family: GeneratingFamilyDescriptor,
                      pert: PerturbationSpec) -> GridFunction:
    """I(t)f = I0(t)f + t Psi(f), applied componentwise in the values."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not _is_linear_base(base_family):
        raise ValueError("base family must be a linear heat or identity semigroup")
    if t == 0.0:
        return f
    base = base_family.step(t, f)
    return with_values(f, base.values + t * pert.psi(f.values))


def make_perturbation_family(base_family: GeneratingFamilyDescriptor,
                             pert: PerturbationSpec,
                             grid: Grid) -> GeneratingFamilyDescriptor:
    """Perturbed family with alpha(R,t) = e^{(omega + 2K)t} max(R,1) and
    beta(R,t) = e^{(omega + L_R)t} (_perturbation_envelopes); generator =
    base generator + Psi(f).

    omega is the growth rate of the base, heat or the identity, from its
    params.  The perturbation is probed for Psi(0) = 0 and the declared
    linear growth before the family is built.
    """
    if not _is_linear_base(base_family):
        raise ValueError("base family must be a linear heat or identity semigroup")
    _probe_perturbation(pert)
    zero = sample_function("zero", grid)
    base_gen = base_family.analytic_generator

    def generator(f):
        return with_values(f, base_gen(f).values + pert.psi(f.values))

    fam = GeneratingFamilyDescriptor(
        name=f"perturbation_{base_family.name}_{pert.name}",
        step=lambda t, f: perturbation_step(f, t, base_family, pert),
        **_perturbation_envelopes(base_family.params["omega"], pert.growth_k,
                                  pert.lip_profile),
        zero_state=zero,
        norm=base_family.norm,
        analytic_generator=generator,
        reach=base_family.reach,
        params={"kind": "perturbation", "base": base_family.params.get("kind"),
                "psi": pert.name, "growth_k": pert.growth_k,
                "base_family": base_family, "perturbation": pert},
    )
    check_family_contract(fam, probe_states=[zero])
    return fam


def telescoping_residual(base_family: GeneratingFamilyDescriptor,
                         pert: PerturbationSpec, f: GridFunction,
                         g: GridFunction, k: int, n: int) -> float:
    """Residual of the exact expansion of perturbed iterates.

    With B = I0(2^-n) linear and I = B + 2^-n Psi, induction gives

        I^k f - I^k g = B^k (f - g)
                        + 2^-n sum_{l<k} B^{k-1-l} (Psi(I^l f) - Psi(I^l g)),

    where B^m realizes the base evaluated along the same partition.  Both
    sides are evaluated literally; the result is floating-point noise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dt = 2.0 ** -n

    # left side and the Psi increments along both trajectories
    uf, ug = f, g
    psi_diffs = []
    for _ in range(k):
        psi_diffs.append(pert.psi(uf.values) - pert.psi(ug.values))
        uf = perturbation_step(uf, dt, base_family, pert)
        ug = perturbation_step(ug, dt, base_family, pert)
    lhs = uf.values - ug.values

    # right side, Horner style: R = B R + A_l
    acc = with_values(f, psi_diffs[0])
    for l in range(1, k):
        acc = with_values(f, base_family.step(dt, acc).values + psi_diffs[l])
    diff = with_values(f, f.values - g.values)
    for _ in range(k):
        diff = base_family.step(dt, diff)
    rhs = diff.values + dt * acc.values

    gap = with_values(f, lhs - rhs)
    zero = with_values(f, np.zeros_like(lhs))
    return grid_distance(gap, zero, base_family.norm)
