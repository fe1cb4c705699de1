"""Numerical certificates for the structural guarantees of a family.

The probes here turn the qualitative hypotheses and conclusions about a
generating family into measured reports:

* generator_estimate compares the Chernoff difference quotients
  (S(h)f - f)/h against the declared analytic generator on an interior
  collar, tracking the error trend as h is halved; errors below the
  round-off floor 1e-10 max(1, ||Af||) read as 0 in the trend.  Each step
  size h follows the one rule check_h_level, which the CLI also calls.
* gen_condition_probe measures the stability quantity
  ||(I(2^-n)^k (f + lam g) - I(2^-n)^k f)/lam - g|| over a sampled (k, n)
  matrix; for linear families this collapses to ||I(pi) g - g|| exactly.
* lipschitz_certificate estimates the time-Lipschitz ratio d(I(t)x, x)/t
  over dyadic ladders and classifies the state as bounded / diverging /
  inconclusive; the symmetric variant also probes the order-conjugate
  family f -> -I(t)(-f), whose images the family's conjugate step gives
  with those of I(t)f from one linear batch per ladder time.  The horizon
  follows the one rule check_horizon, which the CLI also calls.
* alpha_beta_audit samples random states in a ball and checks the declared
  boundedness and Lipschitz envelopes together with their composition laws,
  whose gaps chernoff.envelope_law_gaps states once.
* partition_monotonicity_check measures the minimal nodewise increment of
  the dyadic iterates across refinement levels for sup-type families.

Verdict thresholds are artifact choices: a state is called bounded when the
ratios of the three finest levels agree within 10 percent, diverging when
the last three level-to-level growth factors all exceed 1.2, and
inconclusive otherwise.  Generator comparisons on a grid keep an interior
collar: the nodes at least 2 grid spacings plus the family's reach(h_max)
inside every face, where a step of h_max reads the state's extension with
at most 1e-16 of its mass, and inside the family's comparison mask; a
collar that keeps no node is an error, not a pass (state_space.distance).
Every tolerance follows the rule of chernoff.check_tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chernoff import (
    DEFAULT_N_MAX,
    GeneratingFamilyDescriptor,
    Record,
    apply_partition,
    chernoff_limit,
    dyadic_partition,
    envelope_law_gaps,
    smallest_dyadic_level,
)
from .state_space import (
    GridFunction,
    VectorState,
    _is_finite_number,
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
    "check_h_level",
    "check_horizon",
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
# generator errors below this times max(1, ||Af||) are round-off
_GENERATOR_FLOOR = 1e-10


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


def check_horizon(T, levels) -> list:
    """The rule for a certificate horizon: a positive finite number, dyadic
    at the lowest ladder level, and so at every level above it.  Returns
    the partitions of [0, T] at the levels, in increasing order with
    repeats dropped."""
    if not (_is_finite_number(T) and T > 0):
        raise ValueError(f"horizon must be a positive finite number, got {T!r}")
    return [dyadic_partition(T, n) for n in sorted(set(levels))]


def _certificates(family: GeneratingFamilyDescriptor, states, images,
                  T: float, levels, state_ids) -> list[LipschitzCertificate]:
    """One certificate per state from r_n = max over the level-n ladder
    t in {2^-n, 2 2^-n, ..., T} of d(I(t)x, x)/t, the levels read in
    increasing order with repeats dropped.  images(t) returns the images
    I(t)x of the states, in order; the ladders share their times, so it is
    called once per time."""
    parts = check_horizon(T, levels)
    if not parts:
        raise ValueError("need at least one level")
    ladders = [[k * p.step for k in range(1, p.step_count + 1)] for p in parts]
    times = dict.fromkeys(t for ladder in ladders for t in ladder)
    quotients = {t: [family.distance(im, x) / t for im, x in zip(images(t), states)]
                 for t in times}
    certs = []
    for i, state_id in enumerate(state_ids):
        # each max starts from 0.0, so a NaN quotient never wins
        ratios = [max(0.0, *(quotients[t][i] for t in ladder)) for ladder in ladders]
        certs.append(LipschitzCertificate(
            state_id=state_id,
            horizon=float(T),
            levels=tuple(p.level for p in parts),
            ratios=tuple(ratios),
            gamma_hat=float(max(ratios)),
            growth_factors=tuple(b / a if a > _RATIO_FLOOR else float("nan")
                                 for a, b in zip(ratios, ratios[1:])),
            verdict=_classify(ratios),
        ))
    return certs


def lipschitz_certificate(family: GeneratingFamilyDescriptor, x, T: float,
                          levels, state_id: str = "state") -> LipschitzCertificate:
    """Probe d(I(t)x, x)/t over the dyadic ladders t in {2^-n, 2 2^-n, ..., T},
    reading the levels in increasing order."""
    return _certificates(family, [x], lambda t: [family.step(t, x)], T, levels,
                         [state_id])[0]


def symmetric_lipschitz_certificate(family: GeneratingFamilyDescriptor,
                                    f: GridFunction, T: float, levels,
                                    state_id: str = "state"):
    """Certificates for f under I and under the conjugate I^-(t)f = -I(t)(-f).

    Since the norm is symmetric, the conjugate ratio equals the plain ratio
    of -f, so the minus certificate probes -f under I.  The family's
    conjugate step gives I(t)f and I(t)(-f) together, from one linear batch
    at each ladder time.  The joint verdict is the worse of the two: bounded
    only if both coordinates are bounded.
    """
    if family.conjugate_step is None:
        raise ValueError(f"{family.name}: conjugate family is not available")
    cert_plus, cert_minus = _certificates(
        family, [f, negate(f)], lambda t: family.conjugate_step(t, f), T, levels,
        [f"{state_id}+", f"{state_id}-"])
    joint = max(cert_plus.verdict, cert_minus.verdict, key=VERDICTS.index)
    return cert_plus, cert_minus, joint


def invariance_probe(family: GeneratingFamilyDescriptor, f: GridFunction,
                     t: float, T: float, levels, tol: float = 1e-3):
    """Evolve f to S(t)f by the Chernoff limit between the default levels,
    then certify the result."""
    evolved, _ = chernoff_limit(family, t, f, tol=tol)
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


def default_collar_mask(family: GeneratingFamilyDescriptor, f: GridFunction,
                        h_max: float) -> np.ndarray | None:
    """Interior collar: the nodes at least 2 grid spacings plus the family's
    reach(h_max) inside every face, and inside its comparison mask.  A node
    there reads the state's extension with at most the reach's tail mass,
    so the quotients compare the generator, not the box edge."""
    if not isinstance(family.zero_state, GridFunction):
        return None
    margin = 2 * max(f.grid.h) + (family.reach(h_max) if family.reach else 0.0)
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


def check_h_level(h, n_max: int, previous: float = math.inf) -> int:
    """The rule for a generator step size h that follows previous (inf for
    the first): a positive finite number, below previous, and dyadic at a
    level <= n_max.  Returns that smallest dyadic level."""
    if not (_is_finite_number(h) and h > 0):
        raise ValueError(f"h_levels must be positive finite numbers, got {h!r}")
    if h >= previous:
        raise ValueError(f"h_levels must be strictly decreasing, got {h!r} after "
                         f"{previous!r}")
    level = smallest_dyadic_level(h)
    if level > n_max:
        raise ValueError(f"h={h!r} is not dyadic at any level <= n_max={n_max}")
    return level


def generator_estimate(family: GeneratingFamilyDescriptor, f, h_levels,
                       tol: float = 1e-3, n_max: int = DEFAULT_N_MAX,
                       mask: np.ndarray | None = None) -> GeneratorTable:
    """Difference-quotient check of the analytic generator.

    Each S(h)f is computed by chernoff_limit starting at the smallest level
    at which h is dyadic.  Each h follows the rule of check_h_level:
    positive, strictly decreasing and dyadic at a level <= n_max.  A
    non-convergent limit flags its entry but does not abort the table.  The
    trend reads errors below the round-off floor 1e-10 max(1, ||Af||), Af
    the declared generator on the mask, as 0: a generator reproduced to
    round-off is decreasing, whatever its round-off does as h halves.  The
    table reports the errors as measured.  A mask that keeps no node raises
    ValueError.
    """
    if family.analytic_generator is None:
        raise ValueError(f"{family.name}: no analytic generator declared")
    levels = [check_h_level(h, n_max, previous)
              for previous, h in zip([math.inf, *h_levels], h_levels)]
    hs = [float(h) for h in h_levels]
    if mask is None:
        mask = default_collar_mask(family, f, max(hs))
    generator = family.analytic_generator(f)
    floor = _GENERATOR_FLOOR * max(1.0, grid_distance(
        generator, with_values(f, np.zeros_like(f.values)), family.norm, mask=mask))
    errors = []
    flagged = []
    for h, level in zip(hs, levels):
        evolved, rep = chernoff_limit(family, h, f, tol=tol, n_min=level,
                                      n_max=max(n_max, level + GENERATOR_EXTRA_LEVELS))
        flagged.append(not rep.converged)
        quotient = with_values(f, (evolved.values - f.values) / h)
        errors.append(grid_distance(quotient, generator, family.norm, mask=mask))
    return GeneratorTable(
        h_levels=tuple(hs),
        errors=tuple(errors),
        monotone_decreasing=_trend_is_decreasing([0.0 if e <= floor else e
                                                  for e in errors]),
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
                     R: float, t_list, seed: int) -> AuditReport:
    """Sample states in B(x0, R) and check, at each probe time,

        d(x0, I(t)x)        <= alpha(R, t) + AUDIT_SLACK,
        d(I(t)x, I(t)y)     <= beta(R, t) d(x, y) + AUDIT_SLACK,

    plus the composition laws alpha(alpha(R, s), t) <= alpha(R, s + t) and
    beta(R, s) beta(R, t) <= beta(R, s + t) on sampled (R, s, t) triples,
    whose gaps chernoff.envelope_law_gaps gives, each with the slack
    AUDIT_SLACK max(1, right side), relative to the size of its terms as in
    check_family_contract.  The ball and d(x, y) are
    measured in the full norm, the images through the family's comparison
    mask.
    Violations become report entries (with the seed), never exceptions.
    """
    rng = np.random.default_rng(seed)
    states = [random_ball_state(family, rng, R) for _ in range(n_samples)]
    checks = []
    violations = []

    def record(kind, margin, scale=1.0, **info):
        entry = {"check": kind, "margin": float(margin), "seed": seed, **info}
        checks.append(entry)
        if margin < -AUDIT_SLACK * scale:
            violations.append(entry)

    # alpha and beta refer to the whole space: d(x, y) is taken over every
    # node, and the comparison mask restricts only where images are compared
    dxy = [grid_distance(x, states[(i + 1) % n_samples], family.norm)
           for i, x in enumerate(states)]
    # I(t)x_i serves the bound check of sample i, the x side of its Lipschitz
    # check and the y side of sample i - 1's; every sample takes a time before
    # the next time, so consecutive steps share one dt and one step plan
    ts = [0.0] + [float(t) for t in t_list]
    margins = {}
    for t in ts:
        images = [family.step(t, x) for x in states]
        for i, im in enumerate(images):
            margins["bounded", i, t] = family.alpha(R, t) - family.norm_of(im)
            margins["lipschitz", i, t] = (
                family.beta(R, t) * dxy[i]
                - family.distance(im, images[(i + 1) % n_samples]))
    for i in range(n_samples):
        for kind in ("bounded", "lipschitz"):
            for t in ts:
                record(kind, margins[kind, i, t], t=t, sample=i)

    for _ in range(max(8, n_samples // 4)):
        Rr = rng.uniform(0.0, 2.0 * R)
        s = rng.uniform(0.0, 1.0)
        t = rng.uniform(0.0, 1.0)
        for kind, (gap, right) in zip(("alpha_law", "beta_law"),
                                      envelope_law_gaps(family, Rr, s, t)):
            record(kind, gap, max(1.0, right), R=Rr, s=s, t=t)

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
