"""Exchange Hamiltonians, Zeeman splitting, and pulse evolution."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhier import dynamics, gates
from spinhier.constants import HBAR_MEV_NS, MU_B_MEV_PER_T


def test_heisenberg_eigenvalues():
    h = dynamics.heisenberg_hamiltonian(1.0)
    assert np.linalg.eigvalsh(h) == pytest.approx([-0.75, 0.25, 0.25, 0.25], abs=1e-12)
    assert np.max(np.abs(dynamics.heisenberg_hamiltonian(0.0))) == 0.0


def test_spin_dot_is_bit_equal_to_component_sum():
    # S1.S2 = sum_a S1a S2a from the one-spin operators in the (down, up) basis
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])
    sx, sy, sz = 0.5 * (sp + sp.T), (sp - sp.T) / 2j, np.diag([-0.5, 0.5])
    components = (np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)).real
    assert dynamics.SPIN_DOT.tobytes() == components.tobytes()


def test_heisenberg_total_spin_form():
    j = 1.7
    h = dynamics.heisenberg_hamiltonian(j)
    s_squared = 2.0 * dynamics.SPIN_DOT + 1.5 * np.eye(4)
    assert np.max(np.abs(h - 0.5 * j * (s_squared - 1.5 * np.eye(4)))) < 1e-12


def test_heisenberg_gap_equals_coupling():
    for j in (0.3, 1.0, -2.4):
        eigenvalues = np.linalg.eigvalsh(dynamics.heisenberg_hamiltonian(j))
        assert eigenvalues.max() - eigenvalues.min() == pytest.approx(abs(j), abs=1e-12)


def test_heisenberg_commutes_with_total_sz():
    h = dynamics.heisenberg_hamiltonian(0.8)
    commutator = h @ dynamics.TOTAL_SZ - dynamics.TOTAL_SZ @ h
    assert np.max(np.abs(commutator)) < 1e-12


def test_zeeman_diagonal_pattern():
    assert np.max(np.abs(dynamics.zeeman_hamiltonian(0.0, -0.44))) == 0.0
    z = dynamics.zeeman_hamiltonian(1.0, -0.44)
    assert np.max(np.abs(z - np.diag(np.diag(z)))) == 0.0
    # down-down, down-up, up-down, up-up carry total S_z = -1, 0, 0, +1
    diag = np.diag(z).real
    expected = -0.44 * MU_B_MEV_PER_T * np.array([-1.0, 0.0, 0.0, 1.0])
    assert diag == pytest.approx(expected, abs=1e-15)
    splitting = abs(diag[0] - diag[1])
    assert splitting == pytest.approx(0.44 * MU_B_MEV_PER_T, abs=1e-15)
    assert splitting == pytest.approx(0.0254689, abs=1e-6)


def test_zeeman_energy_beyond_the_float_range_is_refused():
    # before: inf * 0 gave nan entries with a RuntimeWarning
    with pytest.raises(ValueError, match="^Zeeman energy falls outside the float range "):
        dynamics.zeeman_hamiltonian(1e308, 1e308)


def test_zeeman_and_exchange_exponentials_commute():
    h_s = dynamics.heisenberg_hamiltonian(1.3)
    h_z = dynamics.zeeman_hamiltonian(0.9, -0.44)
    assert np.max(np.abs(h_s @ h_z - h_z @ h_s)) < 1e-12
    u_s = gates.exchange_propagator(1.3)
    u_z = np.diag(np.exp(-1j * np.diag(h_z)))
    assert np.max(np.abs(u_s @ u_z - u_z @ u_s)) < 1e-12


def test_pulse_profile_validation():
    with pytest.raises(ValueError):
        dynamics.PulseProfile((1.0,), 1.0)
    with pytest.raises(ValueError):
        dynamics.PulseProfile((1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        dynamics.PulseProfile((1.0, np.inf), 1.0)
    for duration in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="pulse duration must be finite"):
            dynamics.PulseProfile((1.0, 1.0), duration)


def test_pulse_profile_names_its_first_non_finite_sample():
    with pytest.raises(ValueError, match=r"^pulse samples must be finite, got nan$"):
        dynamics.PulseProfile([1.0, np.nan], 1.0)
    with pytest.raises(ValueError, match=r"^pulse samples must be finite, got -inf$"):
        dynamics.PulseProfile([1.0, 2.0, -np.inf, np.nan], 1.0)


def test_pulse_profiles_of_equal_samples_evolve_alike_whatever_they_were_built_from():
    values = np.sin(np.linspace(0.0, 3.0, 4097)) + 0.5
    source = values.copy()
    profiles = [dynamics.PulseProfile(samples, 2.0)
                for samples in (source, values.tolist(), tuple(values.tolist()))]
    unitary, area = dynamics.evolve_pulse(profiles[0], 1024), profiles[0].area()
    for profile in profiles[1:]:
        assert dynamics.evolve_pulse(profile, 1024).tobytes() == unitary.tobytes()
        assert profile.area() == area
    # the profile keeps its own copy of the caller's array
    source[:] = 0.0
    assert profiles[0].samples == tuple(values.tolist())
    assert dynamics.evolve_pulse(profiles[0], 1024).tobytes() == unitary.tobytes()
    assert profiles[0].area() == area
    triangle = dynamics.PulseProfile((0.0, 1.0, 0.25), 2.0)
    replaced = profiles[0]._replace(samples=[0.0, 1.0, 0.25])
    assert replaced == triangle and repr(replaced) == repr(triangle)
    assert dynamics.evolve_pulse(replaced, 7).tobytes() == \
        dynamics.evolve_pulse(triangle, 7).tobytes()


def test_pulse_area_trapezoid():
    profile = dynamics.PulseProfile((0.0, 1.0, 0.0), 2.0)
    assert profile.area() == pytest.approx(1.0 / HBAR_MEV_NS, rel=1e-12)


@pytest.mark.parametrize("samples,duration", [
    ((1.0, 1.0), 1e308),  # d (y0 + y1) alone overflows
    ((1e308, 1e308), 1.0),  # y0 + y1 alone overflows
], ids=["long-duration", "large-samples"])
def test_pulse_area_near_the_float_maximum_is_finite(samples, duration):
    assert dynamics.PulseProfile(samples, duration).area() == 1e308 / HBAR_MEV_NS


def test_pulse_area_beyond_the_float_range_is_refused():
    profile = dynamics.PulseProfile((1e308, 1e308), 1e300)
    with pytest.raises(ValueError, match=r"^pulse area must be finite, got inf$"):
        profile.area()


@pytest.mark.parametrize("samples,duration", [
    ((0.0, 1.0, 0.25), 2.0),
    ((1.0, -2.0, 0.5, 3.0), 0.7),
    (tuple(np.sin(np.linspace(0.0, 3.0, 4097)) + 0.5), 2.0),
    ((1e308, 1e308), 1.0),
], ids=["triangle", "four-samples", "4097-samples", "large-samples"])
def test_pulse_area_is_the_angle_of_one_step_per_segment(samples, duration):
    profile = dynamics.PulseProfile(samples, duration)
    expected = gates.exchange_propagator(profile.area())
    assert dynamics.evolve_pulse(profile, len(samples) - 1).tobytes() == expected.tobytes()


def test_zero_area_pulse_is_identity():
    profile = dynamics.PulseProfile((0.0, 0.0), 1.0)
    assert np.max(np.abs(dynamics.evolve_pulse(profile, 16) - np.eye(4))) < 1e-12


def test_full_cycle_pulse_is_identity_up_to_phase():
    profile = dynamics.pulse_for_area(2 * np.pi, 1.0)
    u = dynamics.evolve_pulse(profile, 64)
    assert gates.gate_fidelity(u, np.eye(4)) == pytest.approx(1.0, abs=1e-10)


def test_pulse_for_area_duration():
    profile = dynamics.pulse_for_area(np.pi, 1.0)
    assert profile.duration_ns == pytest.approx(np.pi * HBAR_MEV_NS, rel=1e-12)
    assert profile.duration_ns == pytest.approx(2.0678, abs=1e-3)
    assert profile.area() == pytest.approx(np.pi, rel=1e-12)


def test_pulse_for_area_degenerate_inputs():
    with pytest.raises(ValueError):
        dynamics.pulse_for_area(np.pi, 0.0)
    with pytest.raises(ValueError):
        dynamics.pulse_for_area(0.0, 1.0)
    with pytest.raises(ValueError):
        dynamics.pulse_for_area(np.pi, -1.0)  # opposite signs give negative duration


def test_integrator_converges_monotonically():
    # smooth convex pulse; midpoint sampling converges quadratically to the
    # closed form at the trapezoid area of the samples
    tau = 2.0
    t = np.linspace(0.0, tau, 4097)
    samples = 1.0 + 0.05 * (t / tau) ** 2
    profile = dynamics.PulseProfile(tuple(samples), tau)
    target = gates.exchange_propagator(profile.area())
    errors = []
    for k in (2, 8, 32, 128, 512, 2048):
        u = dynamics.evolve_pulse(profile, k)
        errors.append(np.max(np.abs(u - target)))
        assert gates.unitarity_defect(u) < 1e-10
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-8


def test_evolve_pulse_rejects_an_overflowing_angle_without_warning():
    # the midpoint sum overflows to inf, which a step dt that underflows to 0
    # turns into nan; the suite makes any numpy warning on the way an error
    for duration in (1.0, 5e-324):
        profile = dynamics.PulseProfile((1e308, 1e308), duration)
        with pytest.raises(ValueError, match="accumulated pulse angle must be finite"):
            dynamics.evolve_pulse(profile, 4)


def test_evolve_pulse_rejects_bad_steps():
    profile = dynamics.pulse_for_area(np.pi, 1.0)
    # 10**400 does not fit in a float, which dt = D / steps needs
    for steps in (0, -1, dynamics.MAX_STEPS + 1, 10**400):
        with pytest.raises(ValueError, match=r"steps must be in 1\.\.9007199254740992, got"):
            dynamics.evolve_pulse(profile, steps)
    # a fractional count would stretch the pulse (2.5 steps of D / 2.5 cover 1.2 D)
    for steps in (2.5, 2.0, 1.5, True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match="steps must be an integer"):
            dynamics.evolve_pulse(profile, steps)
    for numpy_type in (np.int64, np.int32):
        assert np.array_equal(dynamics.evolve_pulse(profile, numpy_type(2)),
                              dynamics.evolve_pulse(profile, 2))
    assert np.array_equal(dynamics.evolve_pulse(profile, dynamics.MAX_STEPS),
                          dynamics.evolve_pulse(profile, 2))


def _exact_midpoint_sum(samples, steps):
    """Midpoint rule of the linear interpolation in exact rationals, visiting
    every midpoint; also the float sum of |J| over the midpoints."""
    seg = len(samples) - 1
    count, offset, magnitude = [0] * seg, [0] * seg, 0.0
    for k in range(steps):
        position = (2 * k + 1) * seg  # sample position times 2 * steps
        i = position // (2 * steps)
        count[i] += 1
        offset[i] += position - 2 * steps * i
        magnitude += abs(samples[i] + (position / (2 * steps) - i)
                         * (samples[i + 1] - samples[i]))
    exact = sum(n * Fraction(lo) + Fraction(off, 2 * steps) * (Fraction(hi) - Fraction(lo))
                for n, off, lo, hi in zip(count, offset, samples, samples[1:]))
    return exact, magnitude


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40), st.integers(1, 5000))
def test_closed_form_midpoint_sum_matches_exact_rationals(samples, steps):
    exact, magnitude = _exact_midpoint_sum(samples, steps)
    error = abs(Fraction(dynamics._midpoint_sum(samples, steps)) - exact)
    # relative to the summed magnitudes: a sum that cancels to near zero has no
    # relative accuracy in any float summation, and for a profile that keeps
    # one sign the magnitude is |sum|
    assert error <= 1e-13 * max(1.0, magnitude)


def test_evolve_pulse_cost_does_not_depend_on_steps():
    # at 10**12 steps a steps-long float array would take 8 TB
    steps, j0 = 10**12, 1.0
    profile = dynamics.pulse_for_area(3.14, j0)
    angle = steps * j0 * (profile.duration_ns / steps) / HBAR_MEV_NS
    assert np.array_equal(dynamics.evolve_pulse(profile, steps),
                          gates.exchange_propagator(angle))
    # a piecewise-linear pulse: only the steps that straddle a sample miss the
    # trapezoid area, by O(dt^2) each
    triangle = dynamics.PulseProfile((0.0, 1.0, 0.25), 2.0)
    u = dynamics.evolve_pulse(triangle, steps + 1)
    assert np.max(np.abs(u - gates.exchange_propagator(triangle.area()))) < 1e-12
