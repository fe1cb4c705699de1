"""Dyadic Chernoff iteration engine.

Given a one-step operator family I(t) with declared boundedness and Lipschitz
envelopes alpha(R, t) and beta(R, t), the engine iterates I(2^-n) along the
dyadic partition of [0, t] and detects convergence of the iterates

    u_n = I(2^-n)^(t 2^n) x

by a successive-distance Cauchy test.  A full-sequence test is used: if the
distances d(u_n, u_{n-1}) do not fall below tolerance by n_max the engine
reports non-convergence instead of hunting for convergent subsequences.

Only dyadic times t = k 2^-n are accepted; these are exactly representable
in binary floating point, so the partition arithmetic is exact.

The rules for a level (check_level) and a tolerance (check_tol), and the
composition laws of the envelopes (envelope_law_gaps), are stated here once:
the family builders' contract check, the envelope audit and the CLI call
them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .state_space import (NonFiniteValuesError, NormSpec, _is_finite_number,
                          _is_integer, distance as grid_distance)

__all__ = [
    "DyadicPartition",
    "GeneratingFamilyDescriptor",
    "ConvergenceReport",
    "Record",
    "NonFiniteStateError",
    "NonDyadicTimeError",
    "check_level",
    "check_tol",
    "envelope_law_gaps",
    "dyadic_partition",
    "smallest_dyadic_level",
    "apply_partition",
    "chernoff_limit",
    "chernoff_limits",
    "semigroup_defect",
    "discrete_semigroup_identity_residual",
    "evolve_path",
]

DEFAULT_TOL = 1e-4
DEFAULT_N_MIN = 4
DEFAULT_N_MAX = 14


class NonDyadicTimeError(ValueError):
    """Raised when a time is not representable as k * 2^-n at the given level."""


class NonFiniteStateError(RuntimeError):
    """Raised when a step produces non-finite values; carries the step index."""

    def __init__(self, step_index: int, message: str = ""):
        self.step_index = step_index
        super().__init__(message or f"non-finite state after step {step_index}")


def smallest_dyadic_level(t: float) -> int:
    """Smallest n with t == k * 2^-n exactly; every finite float has one."""
    if not math.isfinite(t):
        raise ValueError(f"t={t!r} is not finite")
    return float(t).as_integer_ratio()[1].bit_length() - 1


def check_level(n, least: int = 0) -> None:
    """The rule for a partition level: a nonnegative integer, at least
    least (n_max is at least n_min)."""
    if not _is_integer(n) or n < least:
        raise ValueError(f"level must be a nonnegative integer >= {least}, got {n!r}")


def check_tol(tol) -> None:
    """The rule for a convergence tolerance: a positive finite number."""
    if not (_is_finite_number(tol) and tol > 0):
        raise ValueError("tol must be a positive number within the float range, "
                         f"got {tol!r}")


@dataclass(frozen=True)
class DyadicPartition:
    """The level-n dyadic partition of [0, t]: step size exactly 2^-n."""

    t: float
    level: int
    step_count: int

    @property
    def step(self) -> float:
        return 2.0 ** -self.level


def dyadic_partition(t: float, n: int) -> DyadicPartition:
    check_level(n)
    smallest = smallest_dyadic_level(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if smallest > n:
        raise NonDyadicTimeError(f"t={t!r} is not representable as k*2^-{n}"
                                 f"; smallest admissible level is {smallest}")
    k = float(t).as_integer_ratio()[0]  # t = k 2^-smallest; 2.0**n may overflow
    return DyadicPartition(t=float(t), level=int(n), step_count=k << (n - smallest))


@dataclass
class GeneratingFamilyDescriptor:
    """A one-step operator I(t) with its declared envelopes.

    step(t, x) realizes I(t); alpha and beta are the declared bound and
    Lipschitz envelopes of the family (alpha(R, t) maps the ball radius, beta
    the Lipschitz constant on B(x0, R)).  analytic_generator is the optional
    closed-form generator.  conjugate_step(t, f), where declared, returns
    the pair (I(t)f, I(t)(-f)), from which the order-conjugate family
    f -> -I(t)(-f) is certified; kernel families take both from one linear
    batch (families_linear.kernel_family).  reach(t), where declared, is
    the distance in x beyond which I(t) moves at most a negligible share of
    mass, so a node farther than that from the box edge does not read the
    state's extension.
    """

    name: str
    step: Callable
    alpha: Callable[[float, float], float]
    beta: Callable[[float, float], float]
    zero_state: object
    norm: NormSpec | None = None
    analytic_generator: Callable | None = None
    conjugate_step: Callable | None = None
    comparison_mask: np.ndarray | None = None
    reach: Callable[[float], float] | None = None
    params: dict = field(default_factory=dict)

    def distance(self, x, y) -> float:
        return grid_distance(x, y, self.norm, mask=self.comparison_mask)

    def norm_of(self, x) -> float:
        return self.distance(x, self.zero_state)


_ENVELOPE_TRIPLES = (
    (0.0, 0.25, 0.5),
    (0.5, 0.25, 0.25),
    (1.0, 0.5, 1.0),
    (2.0, 1.0, 2.0),
    (4.0, 0.125, 0.875),
)


def envelope_law_gaps(family: GeneratingFamilyDescriptor, R, s, t):
    """The composition laws of the envelopes at (R, s, t), as
    ((alpha gap, alpha(R, s+t)), (beta gap, beta(R, s+t))): the gaps

        alpha(R, s+t) - alpha(alpha(R, s), t)   and
        beta(R, s+t) - beta(R, s) beta(R, t)

    are >= 0 where the laws hold, and each comes with its right side, the
    scale of its slack."""
    a, b = family.alpha(R, s + t), family.beta(R, s + t)
    return ((a - family.alpha(family.alpha(R, s), t), a),
            (b - family.beta(R, s) * family.beta(R, t), b))


def check_family_contract(family: GeneratingFamilyDescriptor, probe_states=()):
    """Validate I(0) = id on probes and the composition laws of alpha, beta
    (envelope_law_gaps) on sampled triples, each within the slack
    1e-9 (1 + right side)."""
    for x in probe_states:
        y = family.step(0.0, x)
        if family.distance(x, y) != 0.0:
            raise ValueError(f"{family.name}: step(0, x) != x")
    for R, s, t in _ENVELOPE_TRIPLES:
        for law, (gap, right) in zip(("alpha", "beta"),
                                     envelope_law_gaps(family, R, s, t)):
            if gap < -1e-9 * (1 + right):
                raise ValueError(f"{family.name}: {law} composition law fails at "
                                 f"(R,s,t)=({R},{s},{t})")


class Record:
    """A record whose JSON form is its dataclass fields, stated once."""

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConvergenceReport(Record):
    """Successive-distance record for the dyadic Chernoff iteration."""

    t: float
    n_min: int
    n_last: int
    tol: float
    deltas: tuple[float, ...]
    converged: bool
    steps_total: int


def apply_partition(family: GeneratingFamilyDescriptor,
                    partition: DyadicPartition, state):
    """k-fold composition of I(2^-n); k = 0 returns the input unchanged."""
    dt = partition.step
    x = state
    for i in range(partition.step_count):
        try:
            x = family.step(dt, x)
        except NonFiniteValuesError as e:
            # the state constructors scan every new state once
            raise NonFiniteStateError(i) from e
    return x


def chernoff_limits(family: GeneratingFamilyDescriptor, times, state,
                    tol: float = DEFAULT_TOL, n_min: int = DEFAULT_N_MIN,
                    n_max: int = DEFAULT_N_MAX) -> dict:
    """chernoff_limit at each of several times from one state: {t: (state, report)}.

    The step of level n is 2^-n whatever t is, so u_n(t) = I(2^-n)^(t 2^n) x
    for every t lies on one trajectory.  Each level walks it once, up to the
    largest time still pending, and reads every pending time's iterate at its
    step count.  Each time stops at its own first d(u_n, u_{n-1}) <= tol, and
    its entry is field for field what chernoff_limit reports for it alone,
    steps_total included; a step that turns non-finite raises with the index
    that a separate run would report.
    """
    check_tol(tol)
    check_level(n_min)
    check_level(n_max, n_min)
    times = list(dict.fromkeys(times))
    for t in times:
        if t != 0.0:
            dyadic_partition(t, n_min)  # validates t at the base level
    pending = sorted(t for t in times if t != 0.0)
    u = {}
    deltas = {t: [] for t in pending}
    steps = dict.fromkeys(pending, 0)

    def converged(t):
        return bool(deltas[t] and deltas[t][-1] <= tol)

    for n in range(n_min, n_max + 1):
        if not pending:
            break
        x, done, prev = state, 0, 0.0
        for t in pending:
            k = dyadic_partition(t, n).step_count
            segment = DyadicPartition(t - prev, n, k - done)  # the steps from prev to t
            try:
                x = apply_partition(family, segment, x)
            except NonFiniteStateError as e:
                raise NonFiniteStateError(done + e.step_index) from e.__cause__
            done, prev = k, t
            steps[t] += k
            if n > n_min:
                deltas[t].append(family.distance(x, u[t]))
            u[t] = x
        pending = [t for t in pending if not converged(t)]
    limits = {}
    for t in times:
        if t == 0.0:
            limits[t] = state, ConvergenceReport(
                t=0.0, n_min=n_min, n_last=n_min, tol=tol, deltas=(),
                converged=True, steps_total=0)
        else:
            limits[t] = u[t], ConvergenceReport(
                t=t, n_min=n_min, n_last=n_min + len(deltas[t]), tol=tol,
                deltas=tuple(deltas[t]), converged=converged(t),
                steps_total=steps[t])
    return limits


def chernoff_limit(family: GeneratingFamilyDescriptor, t: float, state,
                   tol: float = DEFAULT_TOL, n_min: int = DEFAULT_N_MIN,
                   n_max: int = DEFAULT_N_MAX):
    """Iterate levels n_min, n_min+1, ... until d(u_n, u_{n-1}) <= tol.

    Returns (state, ConvergenceReport).  Reaching n_max without meeting the
    criterion returns u_{n_max} flagged as non-converged.  The per-step cost
    doubles with each level (2^n steps at level n for t = 1).
    """
    return chernoff_limits(family, (t,), state, tol, n_min, n_max)[t]


def semigroup_defect(family: GeneratingFamilyDescriptor, s: float, t: float,
                     state, tol: float = DEFAULT_TOL,
                     n_min: int = DEFAULT_N_MIN, n_max: int = DEFAULT_N_MAX,
                     limits: dict | None = None) -> float:
    """d( S(s+t)x, S(s)S(t)x ) with every S evaluated by the Chernoff limit.

    S(s+t)x and S(t)x share one chernoff_limits walk; `limits`, a
    chernoff_limits result from the same state and schedule holding both
    times, replaces it.  Non-convergence of any of the three limits is
    reported as a warning; the defect value is still returned.
    """
    if limits is None:
        limits = chernoff_limits(family, (s + t, t), state, tol, n_min, n_max)
    u_joint, rep_joint = limits[s + t]
    u_t, rep_t = limits[t]
    u_st, rep_s = chernoff_limit(family, s, u_t, tol, n_min, n_max)
    if not (rep_joint.converged and rep_t.converged and rep_s.converged):
        warnings.warn(
            f"{family.name}: semigroup_defect computed from non-converged limits",
            stacklevel=2,
        )
    return family.distance(u_joint, u_st)


def discrete_semigroup_identity_residual(family: GeneratingFamilyDescriptor,
                                         s: float, t: float, n: int, state) -> float:
    """d( I(pi_n^{s+t})x, I(pi_n^s) I(pi_n^t) x ).

    Mathematically zero (both sides compose the same one-step operator the
    same number of times); measures only floating-point non-associativity.
    """
    lhs = apply_partition(family, dyadic_partition(s + t, n), state)
    rhs = apply_partition(family, dyadic_partition(s, n),
                          apply_partition(family, dyadic_partition(t, n), state))
    return family.distance(lhs, rhs)


def evolve_path(family: GeneratingFamilyDescriptor, t_list, state,
                tol: float = DEFAULT_TOL, n_min: int = DEFAULT_N_MIN,
                n_max: int = DEFAULT_N_MAX, limits: dict | None = None):
    """(states, reports) at the strictly increasing dyadic times t_list.

    Computed incrementally through the semigroup property: each increment is
    one chernoff_limit from the previous state, whose ConvergenceReport is
    the time's report.  `limits`, a chernoff_limits result from the same
    state and schedule, supplies the first time's limit.
    """
    ts = [float(t) for t in t_list]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_list must be strictly increasing")
    states = []
    reports = []
    current = state
    prev_t = 0.0
    for t in ts:
        if limits is not None and not states:
            current, rep = limits[t]
        else:
            current, rep = chernoff_limit(family, t - prev_t, current, tol,
                                          n_min, n_max)
        reports.append(rep)
        states.append(current)
        prev_t = t
    return states, reports
