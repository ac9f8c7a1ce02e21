import math

import numpy as np
import pytest

from resonet.errors import ConfigError, DataError
from resonet.reservoir import (BinaryMask, StnoParams, TanhParams, gen_mask,
                               mask_and_flatten, node_run_reference,
                               reshape_states, stno_run)


def test_gen_mask_entries_and_determinism():
    m = gen_mask(1, 400, 65)
    assert m.entries.shape == (400, 65)
    assert set(np.unique(m.entries)) == {-1.0, 1.0}
    assert np.array_equal(m.entries, gen_mask(1, 400, 65).entries)
    assert not np.array_equal(m.entries, gen_mask(2, 400, 65).entries)
    # both signs occur in fair proportion
    frac = np.mean(m.entries == 1.0)
    assert 0.45 < frac < 0.55


def test_binary_mask_rejects_other_values():
    with pytest.raises(DataError):
        BinaryMask(np.array([[1.0, 0.0]]), seed=0)


def test_mask_and_flatten_frozen_example():
    """Tiny case worked out by hand; theta runs fastest."""
    x = np.array([[1.0, 2.0, 3.0],
                  [4.0, 5.0, 6.0]])
    mask = BinaryMask(np.array([[1.0, -1.0],
                                [-1.0, 1.0],
                                [1.0, 1.0]]), seed=0)
    got = mask_and_flatten(x, mask)
    assert np.array_equal(got, [-3.0, 3.0, 5.0, -3.0, 3.0, 7.0, -3.0, 3.0, 9.0])


def test_mask_and_flatten_dimension_check():
    mask = gen_mask(3, 7, 4)
    with pytest.raises(DataError):
        mask_and_flatten(np.ones((3, 5)), mask)


def test_reshape_states_round_trips_flatten():
    rng = np.random.default_rng(4)
    states = rng.uniform(0.0, 2.0, size=(6, 9))
    flat = states.flatten(order="F")
    assert np.array_equal(reshape_states(flat, 6, 9), states)
    with pytest.raises(DataError):
        reshape_states(flat, 6, 8)


def test_stno_params_validation():
    p = StnoParams()
    assert p.dt == 5.0 and p.t_relax == 410.0
    assert p.rest_amplitude == pytest.approx(math.sqrt(1.1))
    assert p.decay == pytest.approx(math.exp(-5.0 / 410.0))
    with pytest.raises(ConfigError):
        StnoParams(i_dc=4.0)  # below the oscillation threshold
    with pytest.raises(ConfigError):
        StnoParams(dt=500.0)  # coarser than the relaxation time
    StnoParams(dt=500.0, allow_coarse_timestep=True)


def stno_step(v_prev: float, drive_ma: float, p: StnoParams) -> float:
    """Advance the oscillator amplitude by one virtual-node interval.

    Scalar oracle for the recurrence ``stno_run`` evaluates; ``drive_ma``
    is the input-referred current, already scaled by ``input_gain``.
    """
    v_inf = p.c * math.sqrt(max(0.0, p.i_dc - drive_ma - p.i_c))
    a = p.decay
    return v_inf * (1.0 - a) + v_prev * a


def test_stno_step_frozen_values():
    p = StnoParams()
    # from rest toward the saturation amplitude for a -3 mA drive
    assert stno_step(0.0, -3.0, p) == pytest.approx(0.024543281585868344, abs=1e-15)
    # drive beyond threshold clamps the target amplitude at zero
    a = math.exp(-5.0 / 410.0)
    assert stno_step(0.5, 3.0, p) == pytest.approx(0.5 * a, abs=1e-15)
    # stepping from the zero-drive fixed point stays there
    v_inf = math.sqrt(6.0 - 4.9)
    assert stno_step(v_inf, 0.0, p) == pytest.approx(v_inf, abs=1e-12)


def test_stno_run_matches_pure_python_loop():
    rng = np.random.default_rng(21)
    p = StnoParams()
    gain = 0.4
    x = rng.uniform(-8.0, 8.0, size=2000)
    got = stno_run(gain * x, p)
    a = math.exp(-p.dt / p.t_relax)
    v = p.rest_amplitude
    for i in range(x.size):
        head = p.i_dc - gain * x[i] - p.i_c
        v_inf = p.c * math.sqrt(head) if head > 0 else 0.0
        v = v_inf * (1.0 - a) + v * a
        assert abs(got[i] - v) < 1e-12


def test_stno_run_initial_state_and_empty_input():
    p = StnoParams()
    out = stno_run(np.zeros(3), p, v0=0.0)
    a = p.decay
    v_inf = math.sqrt(1.1)
    want = v_inf * (1 - a) * np.array([1, 1 + a, 1 + a + a * a])
    assert np.allclose(out, want, atol=1e-14)
    assert stno_run(np.array([]), p).size == 0


def test_stno_states_never_negative():
    rng = np.random.default_rng(8)
    p = StnoParams()
    out = stno_run(rng.uniform(-50, 50, 5000), p)
    assert np.all(out >= 0.0)


def test_node_run_reference_matches_loop():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(500)
    got = node_run_reference(x, gain=1.3, leak=0.7, v0=0.2)
    v = 0.2
    for i in range(x.size):
        v = (1 - 0.7) * v + 0.7 * math.tanh(1.3 * x[i])
        assert abs(got[i] - v) < 1e-12


def test_tanh_params_validation():
    TanhParams(gain=1.0, leak=0.5)
    TanhParams(leak=0.0)  # frozen state is allowed
    with pytest.raises(ConfigError):
        TanhParams(leak=-0.1)
    with pytest.raises(ConfigError):
        TanhParams(leak=1.5)
