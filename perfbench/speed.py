"""Machine-speed reference for the end-to-end wall time.

The benchmark runs on small shared hosts whose speed drifts by tens of
percent over minutes, so a wall time read in one run says as much about the
neighbours as about semiflow.  Each timed process therefore also times a
fixed piece of work that does not touch semiflow, before its first
experiment and after each one, and `rescale` reports the run's wall time at
the speed at which one chunk of that work takes `REFERENCE_S`:

    wall_ref_s = median(wall_s) * REFERENCE_S / median(reference chunk times)

with both medians over all timed processes of the run.  A change to
semiflow moves wall_ref_s exactly as it moves the wall time; a slower host
moves both medians and leaves the ratio.  Medians over the whole run, not
the chunks next to each experiment, because the host's speed also flickers
within a second and a few chunks read next to one experiment follow that
flicker more than the experiment's average speed.

A chunk mixes the kinds of work the workloads do: an interpreter-bound loop
over one-element arrays (the engine loop and ODE steps), narrow and wide 1D
convolutions on a 1201-node axis (heat kernels), and elementwise passes over
a 241^2 array (the 2D branch).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median chunk time on the 2-core reference VM (Python 3.11.7, numpy 2.4.6,
# OpenBLAS 0.3.31, one BLAS thread); it only fixes the unit of wall_ref_s
REFERENCE_S = 0.010
CHUNKS = 9  # per sample

_rng = np.random.default_rng(0)
_line = _rng.standard_normal(1201)
_plane = _rng.standard_normal(241 * 241)
_narrow = np.exp(-np.linspace(-3.0, 3.0, 61) ** 2)
_narrow /= _narrow.sum()
_wide = np.exp(-np.linspace(-3.0, 3.0, 801) ** 2)
_wide /= _wide.sum()


def _chunk() -> float:
    y = np.array([1.0])
    for _ in range(1200):
        y = y - 1e-4 * y
        if not np.isfinite(y).all():
            raise ArithmeticError("reference loop left the reals")
    f = _line
    for _ in range(60):
        f = np.convolve(f, _narrow, mode="same")
    g = np.convolve(np.convolve(_line, _wide, mode="same"), _wide, mode="same")
    p = np.maximum(_plane * 0.5, _plane * -0.25) + np.abs(_plane)
    return float(y[0] + f[600] + g[600] + p[0])


def sample() -> list[float]:
    """Times of CHUNKS reference chunks run back to back, in seconds."""
    times = []
    for _ in range(CHUNKS):
        t = perf_counter()
        _chunk()
        times.append(perf_counter() - t)
    return times


def rescale(walls: list[float], chunks: list[float]) -> float:
    """Median wall time at the reference speed."""
    return statistics.median(walls) * REFERENCE_S / statistics.median(chunks)
