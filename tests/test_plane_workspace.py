"""The 2D heat step's plane transform and the workspace it writes into.

A 2D step transforms the extended state once and inverts each candidate's
product in buffers held from call to call.  These tests count its FFT calls
and check that what the buffers hold never reaches a returned batch: each
batch is fresh, and a step gives the same bits whatever an earlier step
left in the workspace.  Its accuracy is tested in test_heat_plan against a
matrix exponential.
"""

import numpy as np
import pytest

from semiflow import families_linear as fl
from semiflow.families_linear import HeatDriftParams, heat_drift_step, heat_multi_step
from semiflow.state_space import grid_create
from test_heat_plan import _state

DRIFTS = np.array([[0.5, -1.0], [0.0, 0.0], [-1.0, 2.0], [1.0, 0.0], [0.3, 0.3],
                   [-0.5, 1.5]])
SIGMAS = np.array([[1.0, 1.0], [0.5, 1.0], [1.0, 0.0], [0.0, 0.5], [0.8, 0.8],
                   [1.0, 0.25]])


@pytest.fixture
def fft_calls(monkeypatch):
    """The numpy.fft functions called while the fixture is active, in order."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _fft=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fft(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("C", [1, 2, 6])
@pytest.mark.parametrize("ext_mode", ["zero", "clamp"])
def test_plane_step_makes_2_plus_2c_fft_calls(C, ext_mode, fft_calls):
    # one rFFT and one FFT of the state, one inverse FFT and one inverse
    # rFFT per candidate
    f = _state(grid_create(2, (3.0, 2.0), (41, 31)), ext_mode, seed=1)
    heat_multi_step(f, 2.0**-5, DRIFTS[:C], SIGMAS[:C])
    assert len(fft_calls) == 2 + 2 * C
    assert fft_calls == ["rfft", "fft"] + ["ifft", "irfft"] * C


def test_batches_outlive_the_next_step():
    g = grid_create(2, 3.0, 41)
    f, h = _state(g, "clamp", seed=1, columns=2), _state(g, "clamp", seed=5, columns=2)
    first = heat_multi_step(f, 2.0**-5, DRIFTS, SIGMAS)
    kept = first.copy()
    stepped = heat_drift_step(f, 2.0**-5, HeatDriftParams.create((0.5, -1.0), 1.0, 2))
    stepped_kept = stepped.values.copy()
    second = heat_multi_step(h, 2.0**-5, DRIFTS, SIGMAS)
    assert np.array_equal(first, kept)
    assert np.array_equal(stepped.values, stepped_kept)
    buffers = [b for b in fl._WORKSPACE.values() if isinstance(b, np.ndarray)]
    assert buffers
    for batch in (first, stepped.values, second):
        for other in [first, stepped.values, second, *buffers]:
            if other is not batch:
                assert not np.shares_memory(batch, other)


def test_steps_do_not_depend_on_the_workspace():
    # alternating grids, extension modes, dt and m; repeated shapes reuse the
    # buffers, whose padding and inverse transforms the last step overwrote
    wide = grid_create(2, (3.0, 2.0), (41, 61))
    square = grid_create(2, 3.0, 41)
    line = grid_create(1, 3.0, 41)
    calls = [(wide, "zero", 2.0**-5, 1), (wide, "zero", 2.0**-5, 1),
             (square, "clamp", 2.0**-5, 1), (square, "clamp", 2.0**-5, 2),
             (line, "clamp", 2.0**-5, 1), (wide, "clamp", 2.0**-6, 1),
             (wide, "zero", 2.0**-5, 1), (square, "clamp", 2.0**-5, 2),
             (square, "zero", 0.25, 2), (square, "clamp", 0.25, 1)]

    def step(k):
        grid, ext_mode, t, m = calls[k]
        dim = grid.dim
        return heat_multi_step(_state(grid, ext_mode, seed=k, columns=m), t,
                               DRIFTS[:, :dim], SIGMAS[:, :dim])

    held = [step(k) for k in range(len(calls))]
    for k in range(len(calls)):
        fl._WORKSPACE.clear()
        assert np.array_equal(step(k), held[k]), calls[k]
    # one workspace, for the extended shape of the last plane step
    assert {k for k, v in fl._WORKSPACE.items() if isinstance(v, np.ndarray)} \
        == {"ext", "half", "spec", "work"}
    assert fl._WORKSPACE["shape"] == (fl._PLANS["heat", 0][1].nfft,
                                      fl._PLANS["heat", 1][1].nfft, 1)
