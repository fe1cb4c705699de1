"""Numerical certificates for the structural guarantees of a family.

The probes here turn the qualitative hypotheses and conclusions about a
generating family into measured reports:

* generator_estimate compares the Chernoff difference quotients
  (S(h)f - f)/h against the declared analytic generator on an interior
  collar, tracking the error trend as h is halved.
* gen_condition_probe measures the stability quantity
  ||(I(2^-n)^k (f + lam g) - I(2^-n)^k f)/lam - g|| over a sampled (k, n)
  matrix; for linear families this collapses to ||I(pi) g - g|| exactly.
* lipschitz_certificate estimates the time-Lipschitz ratio d(I(t)x, x)/t
  over dyadic ladders and classifies the state as bounded / diverging /
  inconclusive; the symmetric variant repeats the probe for the
  order-conjugate family f -> -I(t)(-f).
* alpha_beta_audit samples random states in a ball and checks the declared
  boundedness and Lipschitz envelopes together with their composition laws.
* partition_monotonicity_check measures the minimal nodewise increment of
  the dyadic iterates across refinement levels for sup-type families.

Verdict thresholds are artifact choices: a state is called bounded when the
last three level ratios agree within 10 percent, diverging when the last
three level-to-level growth factors all exceed 1.2, and inconclusive
otherwise.  Sup-norm comparisons involving kernels exclude an interior
collar of 2 nodes plus 8 sqrt(h_max) kernel standard deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chernoff import (
    DEFAULT_N_MAX,
    DEFAULT_N_MIN,
    GeneratingFamilyDescriptor,
    Record,
    apply_partition,
    chernoff_limit,
    dyadic_partition,
    smallest_dyadic_level,
)
from .state_space import (
    GridFunction,
    VectorState,
    distance as grid_distance,
    interior_mask,
    negate,
    with_values,
)

__all__ = [
    "LipschitzCertificate",
    "AuditReport",
    "GeneratorTable",
    "generator_estimate",
    "gen_condition_probe",
    "lipschitz_certificate",
    "symmetric_lipschitz_certificate",
    "invariance_probe",
    "alpha_beta_audit",
    "partition_monotonicity_check",
    "random_ball_state",
    "BOUNDED_PLATEAU_FACTOR",
    "DIVERGING_GROWTH_FACTOR",
    "AUDIT_SLACK",
    "VERDICTS",
    "GENERATOR_EXTRA_LEVELS",
]

BOUNDED_PLATEAU_FACTOR = 1.1
DIVERGING_GROWTH_FACTOR = 1.2
AUDIT_SLACK = 1e-8
# what _classify returns, best first: a joint verdict is the worse of two
VERDICTS = ("bounded", "inconclusive", "diverging")
GENERATOR_EXTRA_LEVELS = 4  # levels a generator probe may run past its own
_RATIO_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# Lipschitz certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzCertificate(Record):
    """Per-level time-Lipschitz ratios r_n = max_t d(I(t)x, x)/t and verdict."""

    state_id: str
    horizon: float
    levels: tuple[int, ...]
    ratios: tuple[float, ...]
    gamma_hat: float
    growth_factors: tuple[float, ...]
    verdict: str


def _classify(ratios) -> str:
    if len(ratios) < 3:
        return "inconclusive"
    last = ratios[-3:]
    if max(last) <= _RATIO_FLOOR:
        return "bounded"
    if min(last) > 0 and max(last) / min(last) <= BOUNDED_PLATEAU_FACTOR:
        return "bounded"
    growth = [b / a for a, b in zip(ratios, ratios[1:]) if a > _RATIO_FLOOR]
    if len(growth) >= 3 and all(g >= DIVERGING_GROWTH_FACTOR for g in growth[-3:]):
        return "diverging"
    return "inconclusive"


def _ladder_quotients(family: GeneratingFamilyDescriptor, states, T: float,
                      levels) -> list[dict]:
    """d(I(t)x, x)/t per state at every distinct ladder time t = k 2^-n.

    The ladders of different levels share their times, so each I(t)x is
    evaluated once; all states take a time before the next one, so
    consecutive steps share one dt.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    parts = [dyadic_partition(T, n) for n in levels]
    if not parts:
        raise ValueError("need at least one level")
    times = dict.fromkeys(k * p.step for p in parts
                          for k in range(1, p.step_count + 1))
    quotients = [{} for _ in states]
    for t in times:
        for q, x in zip(quotients, states):
            q[t] = family.distance(family.step(t, x), x) / t
    return quotients


def _certificate(quotients: dict, T: float, levels,
                 state_id: str) -> LipschitzCertificate:
    ratios = []
    for n in levels:
        best = 0.0
        for k in range(1, int(round(T * 2.0**n)) + 1):
            best = max(best, quotients[k * 2.0**-n])
        ratios.append(best)
    growth = tuple(b / a if a > _RATIO_FLOOR else float("nan")
                   for a, b in zip(ratios, ratios[1:]))
    return LipschitzCertificate(
        state_id=state_id,
        horizon=float(T),
        levels=tuple(int(n) for n in levels),
        ratios=tuple(ratios),
        gamma_hat=float(max(ratios)),
        growth_factors=growth,
        verdict=_classify(ratios),
    )


def lipschitz_certificate(family: GeneratingFamilyDescriptor, x, T: float,
                          levels, state_id: str = "state") -> LipschitzCertificate:
    """Probe d(I(t)x, x)/t over the dyadic ladders t in {2^-n, 2 2^-n, ..., T}."""
    quotients, = _ladder_quotients(family, [x], T, levels)
    return _certificate(quotients, T, levels, state_id)


def symmetric_lipschitz_certificate(family: GeneratingFamilyDescriptor,
                                    f: GridFunction, T: float, levels,
                                    state_id: str = "state"):
    """Certificates for f under I and under the conjugate I^-(t)f = -I(t)(-f).

    Since the norm is symmetric, the conjugate ratio equals the plain ratio
    of -f, so the minus certificate probes -f under I.  The joint verdict is
    the worse of the two: bounded only if both coordinates are bounded.
    """
    if not family.minus_conjugate:
        raise ValueError(f"{family.name}: conjugate family is not available")
    q_plus, q_minus = _ladder_quotients(family, [f, negate(f)], T, levels)
    cert_plus = _certificate(q_plus, T, levels, f"{state_id}+")
    cert_minus = _certificate(q_minus, T, levels, f"{state_id}-")
    joint = max(cert_plus.verdict, cert_minus.verdict, key=VERDICTS.index)
    return cert_plus, cert_minus, joint


def invariance_probe(family: GeneratingFamilyDescriptor, f: GridFunction,
                     t: float, T: float, levels, tol: float = 1e-3,
                     n_min: int = DEFAULT_N_MIN, n_max: int = DEFAULT_N_MAX):
    """Evolve f to S(t)f by the Chernoff limit, then certify the result."""
    if t == 0.0:
        evolved = f
    else:
        evolved, _ = chernoff_limit(family, t, f, tol=tol, n_min=n_min,
                                    n_max=n_max)
    return symmetric_lipschitz_certificate(family, evolved, T, levels,
                                           state_id=f"S({t})f")


# ---------------------------------------------------------------------------
# generator consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorTable(Record):
    """Difference-quotient errors ||(S(h)f - f)/h - Af|| per probe step h."""

    h_levels: tuple[float, ...]
    errors: tuple[float, ...]
    monotone_decreasing: bool
    smallest_error: float
    flagged: tuple[bool, ...]  # True where the Chernoff limit did not converge


def _quotient_error(family, f, evolved, h, mask):
    quotient = with_values(f, (evolved.values - f.values) / h)
    return grid_distance(quotient, family.analytic_generator(f), family.norm,
                         mask=mask)


def default_collar_mask(family: GeneratingFamilyDescriptor, f: GridFunction,
                        h_max: float) -> np.ndarray | None:
    """Interior collar: 2 nodes plus 8 sqrt(h_max) kernel standard deviations."""
    if not isinstance(family.zero_state, GridFunction):
        return None
    margin = 2 * max(f.grid.h) + 8.0 * family.kernel_sigma_max * math.sqrt(h_max)
    mask = interior_mask(f.grid, margin)
    if family.comparison_mask is not None:
        mask = mask & family.comparison_mask
    return mask


def _trend_is_decreasing(errors, blip_factor: float = 1.2) -> bool:
    """Non-increasing up to at most one step that exceeds its predecessor
    by no more than the blip factor."""
    blips = 0
    for a, b in zip(errors, errors[1:]):
        if b > a:
            if b > blip_factor * a:
                return False
            blips += 1
    return blips <= 1


def generator_estimate(family: GeneratingFamilyDescriptor, f, h_levels,
                       tol: float = 1e-3, n_max: int = DEFAULT_N_MAX,
                       mask: np.ndarray | None = None) -> GeneratorTable:
    """Difference-quotient check of the analytic generator.

    Each S(h)f is computed by chernoff_limit starting at the smallest level
    at which h is dyadic.  h_levels must be strictly decreasing and dyadic at
    a level <= n_max.  A non-convergent limit flags its entry but does not
    abort the table.
    """
    if family.analytic_generator is None:
        raise ValueError(f"{family.name}: no analytic generator declared")
    hs = [float(h) for h in h_levels]
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_levels must be strictly decreasing")
    levels = [smallest_dyadic_level(h) for h in hs]
    for h, level in zip(hs, levels):
        if level > n_max:
            raise ValueError(f"h={h!r} is not dyadic at any level <= n_max={n_max}")
    if mask is None:
        mask = default_collar_mask(family, f, max(hs))
    errors = []
    flagged = []
    for h, level in zip(hs, levels):
        evolved, rep = chernoff_limit(family, h, f, tol=tol, n_min=level,
                                      n_max=max(n_max, level + GENERATOR_EXTRA_LEVELS))
        flagged.append(not rep.converged)
        errors.append(_quotient_error(family, f, evolved, h, mask))
    return GeneratorTable(
        h_levels=tuple(hs),
        errors=tuple(errors),
        monotone_decreasing=_trend_is_decreasing(errors),
        smallest_error=float(min(errors)),
        flagged=tuple(flagged),
    )


# ---------------------------------------------------------------------------
# the stability condition behind generator transfer
# ---------------------------------------------------------------------------

def gen_condition_probe(family: GeneratingFamilyDescriptor, f, g, t0: float,
                        lambda_list=(1.0, 0.5, 0.25)) -> float:
    """max over sampled (k, n) with k 2^-n <= t0 and lam in lambda_list of
    ||(I(2^-n)^k (f + lam g) - I(2^-n)^k f)/lam - g||.

    The sampled matrix takes n in {n0, n0+1, n0+2} for the level n0 of t0 and
    k in {1, k_max/2, k_max}.
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    if any(not (0 < lam <= 1) for lam in lambda_list):
        raise ValueError("lambda_list must lie in (0, 1]")
    n0 = smallest_dyadic_level(t0)
    best = 0.0
    for n in (n0, n0 + 1, n0 + 2):
        k_max = int(round(t0 * 2.0**n))
        for k in sorted({1, max(1, k_max // 2), k_max}):
            part = dyadic_partition(k * 2.0**-n, n)
            base = apply_partition(family, part, f)
            for lam in lambda_list:
                shifted = with_values(f, f.values + lam * g.values)
                pert = apply_partition(family, part, shifted)
                q = with_values(f, (pert.values - base.values) / lam)
                best = max(best, family.distance(q, g))
    return best


# ---------------------------------------------------------------------------
# envelope audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport(Record):
    """Measured-vs-declared envelope margins; violations carry their seeds."""

    family: str
    seed: int
    radius: float
    t_list: tuple[float, ...]
    n_samples: int
    checks: tuple[dict, ...]
    violations: tuple[dict, ...]
    violation_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "violation_count", len(self.violations))


def random_ball_state(family: GeneratingFamilyDescriptor, rng,
                      radius: float):
    """Seeded random state in B(x0, R): a sum of three Gaussian bumps with
    random centers and widths (a random direction for vector states),
    rescaled to a random fraction of the ball radius in the full norm."""
    target = radius * rng.uniform(0.2, 1.0)
    if isinstance(family.zero_state, VectorState):
        d = family.zero_state.coordinates.size
        v = rng.standard_normal(d)
        v *= target / np.linalg.norm(v)
        return VectorState(v)
    grid = family.zero_state.grid
    coords = grid.node_coords()
    vals = np.zeros(grid.n_nodes)
    for _ in range(3):
        center = np.array([rng.uniform(-0.5 * X, 0.5 * X) for X in grid.x_max])
        width = rng.uniform(0.4, 1.5)
        amp = rng.uniform(-1.0, 1.0)
        vals += amp * np.exp(-np.sum((coords - center) ** 2, axis=1) / width**2)
    state = with_values(family.zero_state, vals[:, None])
    nrm = grid_distance(state, family.zero_state, family.norm)
    if nrm == 0.0:
        vals[:] = 1.0
        state = with_values(family.zero_state, vals[:, None])
        nrm = grid_distance(state, family.zero_state, family.norm)
    return with_values(family.zero_state, state.values * (target / nrm))


def alpha_beta_audit(family: GeneratingFamilyDescriptor, n_samples: int,
                     R: float, t_list, seed: int,
                     slack: float = AUDIT_SLACK) -> AuditReport:
    """Sample states in B(x0, R) and check, at each probe time,

        d(x0, I(t)x)        <= alpha(R, t) + slack,
        d(I(t)x, I(t)y)     <= beta(R, t) d(x, y) + slack,

    plus the composition laws of alpha and beta on sampled (R, s, t) triples.
    The ball and d(x, y) are measured in the full norm, the images through
    the family's comparison mask.
    Violations become report entries (with the seed), never exceptions.
    """
    rng = np.random.default_rng(seed)
    states = [random_ball_state(family, rng, R) for _ in range(n_samples)]
    checks = []
    violations = []

    def record(kind, margin, **info):
        entry = {"check": kind, "margin": float(margin), "seed": seed, **info}
        checks.append(entry)
        if margin < -slack:
            violations.append(entry)

    # alpha and beta refer to the whole space: d(x, y) is taken over every
    # node, and the comparison mask restricts only where images are compared
    dxy = [grid_distance(x, states[(i + 1) % n_samples], family.norm)
           for i, x in enumerate(states)]
    # I(t)x_i serves the bound check of sample i, the x side of its Lipschitz
    # check and the y side of sample i - 1's; one t at a time, so consecutive
    # steps share one dt
    ts = [0.0] + [float(t) for t in t_list]
    bound = {}
    lip = {}
    for t in ts:
        first = nxt = family.step(t, states[0]) if states else None
        for i in range(n_samples):
            im = nxt
            nxt = family.step(t, states[i + 1]) if i + 1 < n_samples else first
            bound[i, t] = family.alpha(R, t) - family.norm_of(im)
            lip[i, t] = family.beta(R, t) * dxy[i] - family.distance(im, nxt)
    for i in range(n_samples):
        for t in ts:
            record("bounded", bound[i, t], t=t, sample=i)
        for t in ts:
            record("lipschitz", lip[i, t], t=t, sample=i)

    for _ in range(max(8, n_samples // 4)):
        Rr = rng.uniform(0.0, 2.0 * R)
        s = rng.uniform(0.0, 1.0)
        t = rng.uniform(0.0, 1.0)
        record("alpha_law",
               family.alpha(Rr, s + t) - family.alpha(family.alpha(Rr, s), t),
               R=Rr, s=s, t=t)
        record("beta_law",
               family.beta(Rr, s + t) - family.beta(Rr, s) * family.beta(Rr, t),
               R=Rr, s=s, t=t)

    return AuditReport(
        family=family.name,
        seed=seed,
        radius=float(R),
        t_list=tuple(float(t) for t in t_list),
        n_samples=n_samples,
        checks=tuple(checks),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Nisio monotonicity in the partition level
# ---------------------------------------------------------------------------

def partition_monotonicity_check(family: GeneratingFamilyDescriptor,
                                 f: GridFunction, t: float, levels) -> float:
    """Min over refinement levels and nodes of u_{n+1} - u_n for the dyadic
    iterates of a sup-type family; restricted to the family's comparison
    mask when one is declared."""
    if len(levels) < 2:
        raise ValueError("need at least two levels")
    parts = [dyadic_partition(t, n) for n in sorted(levels)]
    iterates = [apply_partition(family, part, f) for part in parts]
    worst = math.inf
    for a, b in zip(iterates, iterates[1:]):
        inc = b.values - a.values
        if family.comparison_mask is not None:
            inc = inc[family.comparison_mask]
        worst = min(worst, float(np.min(inc)))
    return worst
