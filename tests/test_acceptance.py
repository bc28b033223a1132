"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from spinhier import dynamics, gates, hierarchy, quantum_dot, wavelet
from spinhier.angular_momentum import SpinLabel, couple_pair_matrix

SQ2 = 1.0 / np.sqrt(2.0)

# Frozen extended-precision oracle values (200-term series, 50-digit arithmetic)
BESSEL_GOLDENS = {
    0.1: 1.0025015629340956014,
    1.0: 1.266065877752008335598,
    2.0: 2.279585302336067267437,
    5.0: 27.23987182360444689454,
    10.0: 2815.71662846625447147,
    50.0: 293255378384933632665.5,
}
EXCHANGE_GOLDEN = 0.2545870495515009058193  # J(b=1, d=0.7, c=2.36) / (hbar omega0)


def _report(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def test_c01_pair_coupling_matrix_fixture():
    a = couple_pair_matrix(SpinLabel(1), SpinLabel(1))
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-SQ2, 0.0, SQ2, 0.0],
        [SQ2, 0.0, SQ2, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    defect = np.max(np.abs(a - expected))
    assert defect < 1e-12
    _report(1, f"pair coupling matrix entrywise defect {defect:.2e} < 1e-12")


def test_c02_multiplet_cnot_fixture():
    pair = couple_pair_matrix(SpinLabel(1), SpinLabel(1))
    f = gates.to_multiplet(gates.cnot_product(), pair)
    expected = np.array([
        [0.5, 0.0, -0.5, SQ2],
        [0.0, 1.0, 0.0, 0.0],
        [-0.5, 0.0, 0.5, SQ2],
        [SQ2, 0.0, SQ2, 0.0],
    ])
    defect = np.max(np.abs(f - expected))
    assert defect < 1e-12
    assert abs(f[0, 0] - 0.5) < 1e-12
    assert abs(f[0, 3] - SQ2) < 1e-12
    assert abs(f[3, 3]) < 1e-12
    _report(2, f"multiplet CNOT entrywise defect {defect:.2e} < 1e-12")


def test_c03_ladder_bookkeeping():
    dims = hierarchy.ladder_dimensions(2)
    assert dims.v[0] == 16 and dims.w == (7, 4) and dims.v[-1] == 5
    for levels in (1, 2, 3):
        tree = hierarchy.build_coupling_tree(2 ** levels)
        expected = hierarchy.ladder_dimensions(levels)
        for j in range(levels + 1):
            rank = int(np.sum(np.linalg.eigvalsh(
                hierarchy.approximation_projector(tree, j)) > 0.5))
            assert rank == expected.v[j]
        for j in range(1, levels + 1):
            rank = int(np.sum(np.linalg.eigvalsh(
                hierarchy.detail_projector(tree, j)) > 0.5))
            assert rank == expected.w[j - 1]
    _report(3, "16 = 7 + 4 + 5 and projector ranks match closed forms for M <= 3")


def test_c04_multiplet_completeness_and_unitarity():
    for n in (2, 4, 8, 12):
        content = hierarchy.register_content(n)
        assert sum((s.twice_j + 1) * mult for s, mult in content) == 2 ** n
    defects = {}
    for n in (2, 4, 8):
        u = hierarchy.hierarchic_transform(hierarchy.build_coupling_tree(n))
        defects[n] = np.max(np.abs(u.conj().T @ u - np.eye(2 ** n)))
        assert defects[n] < 1e-10
    _report(4, "dimension counts exact for N in {2,4,8,12}; "
               f"transform unitarity defect at N=8 is {defects[8]:.2e} < 1e-10")


def test_c05_swap_pulse():
    full = dynamics.evolve_pulse(dynamics.pulse_for_area(np.pi, 1.0), 1024)
    fid_swap = gates.gate_fidelity(full, gates.swap_gate())
    assert abs(fid_swap - 1.0) < 1e-8
    half = dynamics.evolve_pulse(dynamics.pulse_for_area(np.pi / 2, 1.0), 1024)
    fid_half = gates.gate_fidelity(half, gates.sqrt_swap_gate())
    assert abs(fid_half - 1.0) < 1e-8
    _report(5, f"area-pi pulse swap fidelity {fid_swap:.15f}, "
               f"half-area sqrt-swap fidelity {fid_half:.15f}")


def test_c06_xor_sequence_is_conditional_phase_flip():
    fid = gates.gate_fidelity(gates.xor_sequence(), gates.conditional_phase_flip())
    assert abs(fid - 1.0) < 1e-10
    _report(6, f"five-factor sequence vs conditional phase flip fidelity {fid:.15f}")


def test_c07_singlet_triplet_split():
    j = 1.0
    h = dynamics.heisenberg_hamiltonian(j)
    eigenvalues = np.linalg.eigvalsh(h)
    assert np.max(np.abs(eigenvalues - np.array([-0.75, 0.25, 0.25, 0.25]))) < 1e-12
    s_squared = 2.0 * dynamics.SPIN_DOT + 1.5 * np.eye(4)
    assert np.max(np.abs(h - 0.5 * j * (s_squared - 1.5 * np.eye(4)))) < 1e-12
    _report(7, "eigenvalues {J/4 x3, -3J/4} and total-spin form agree within 1e-12")


def test_c08_gaas_numbers():
    params = quantum_dot.DotParameters.gaas()
    a_b = quantum_dot.bohr_radius(params)
    assert abs(a_b - 19.5) / 19.5 < 0.05
    est = quantum_dot.physical_estimates(params)
    assert 1e-8 <= est.spin_orbit_ratio <= 1e-7
    assert 5e-10 <= est.dipole_mev <= 5e-9
    _report(8, f"a_B = {a_b:.3f} nm, spin-orbit ratio {est.spin_orbit_ratio:.2e}, "
               f"dipole {est.dipole_mev:.2e} meV")


def test_c09_exchange_sweep():
    got = quantum_dot.exchange_coupling(1.0, 0.7, 2.36)
    assert abs(got - EXCHANGE_GOLDEN) / EXCHANGE_GOLDEN < 1e-12
    fields = np.linspace(0.0, 2.0, 201)
    results = quantum_dot.sweep_exchange(quantum_dot.DotParameters.gaas(d=0.7), fields)
    j_values = np.array([r.j_mev for r in results])
    peak = np.abs(j_values).max()
    assert 0.1 <= peak <= 3.0
    assert j_values.min() < 0.0 < j_values.max()
    _report(9, f"golden J matches oracle to {abs(got - EXCHANGE_GOLDEN) / EXCHANGE_GOLDEN:.1e}; "
               f"sweep peak |J| = {peak:.3f} meV with a sign change")


def test_c10_bessel_oracle():
    worst = max(
        abs(quantum_dot.bessel_i0(x) - ref) / ref for x, ref in BESSEL_GOLDENS.items()
    )
    assert worst < 1e-12
    _report(10, f"I0 worst relative error {worst:.2e} < 1e-12 on the oracle grid")


def test_c11_haar_round_trip():
    s, d = wavelet.haar_step([3.0, 1.0])
    assert abs(s[0] - 2 * np.sqrt(2)) < 1e-14
    assert abs(d[0] - np.sqrt(2)) < 1e-14
    rng = np.random.default_rng(42)
    worst_round_trip = 0.0
    worst_parseval = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 17))
        signal = rng.standard_normal(2 ** m)
        levels = int(rng.integers(1, m + 1))
        decomposition = wavelet.pyramid_forward(signal, levels)
        recovered = wavelet.pyramid_inverse(decomposition)
        worst_round_trip = max(worst_round_trip, float(np.max(np.abs(recovered - signal))))
        energy = np.sum(decomposition.approximation ** 2) + sum(
            np.sum(band ** 2) for band in decomposition.details
        )
        total = float(np.sum(signal ** 2))
        worst_parseval = max(worst_parseval, abs(energy - total) / total)
    assert worst_round_trip < 1e-12
    assert worst_parseval < 1e-12
    _report(11, f"100 dyadic signals: worst round-trip {worst_round_trip:.2e}, "
                f"worst relative energy defect {worst_parseval:.2e}")


def test_c12_state_analysis():
    tree = hierarchy.build_coupling_tree(4)
    all_up = np.zeros(16)
    all_up[-1] = 1.0
    profile_up = hierarchy.analyze_state(all_up, tree)
    assert abs(profile_up.final_weight - 1.0) < 1e-12

    singlet = np.array([0.0, -SQ2, SQ2, 0.0])
    profile_ss = hierarchy.analyze_state(np.kron(singlet, singlet), tree)
    assert abs(profile_ss.detail_weights[0] - 1.0) < 1e-12
    _report(12, "all-up weight 1 in V_2; singlet x singlet weight 1 in W_1")


# Pinned stdout of the integer and scalar subcommands of c13: these bytes are
# the output contract, not only their repeatability.
C13_GOLDEN_STDOUT = {
    "decompose": b'{"content":[{"J":2,"mult":1},{"J":1,"mult":3},{"J":0,"mult":2}],'
                 b'"check":16}\n',
    "ladder": b'{"V0":16,"W":[7,4],"VM":5}\n',
    "estimates": b'{"a_B_nm":19.470539769508367,"spin_orbit_ratio":4.381224990507346e-08,'
                 b'"dipole_meV":1.408007666991441e-09}\n',
    "constants": b'{"hbar_mev_ns":0.6582119,"mu_b_mev_per_tesla":0.0578838,'
                 b'"hbar_c_mev_nm":197326.9804,"electron_rest_energy_mev":511000000.0,'
                 b'"coulomb_e2_mev_nm":1440.0}\n',
}


def test_c13_cli_determinism(tmp_path):
    state = tmp_path / "state.json"
    state.write_text('{"amplitudes": [[0.0, 0.0], [-0.7071067811865476, 0.0], '
                     '[0.7071067811865476, 0.0], [0.0, 0.0]]}')
    signal = tmp_path / "signal.csv"
    signal.write_text("".join(f"{v}\n" for v in (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0)))
    invocations = [
        ["decompose", "--qubits", "4"],
        ["ladder", "--levels", "2"],
        ["transform", "--qubits", "2", "--in", str(state), "--direction", "forward"],
        ["analyze", "--qubits", "2", "--in", str(state)],
        ["gate", "--name", "cnot", "--basis", "multiplet"],
        ["pulse", "--j0", "1.0", "--area", "pi"],
        ["jsweep", "--bmin", "0", "--bmax", "2", "--points", "11", "--d", "0.7"],
        ["haar", "--in", str(signal), "--levels", "3"],
        ["estimates"],
        ["constants"],
    ]
    for argv in invocations:
        runs = [
            subprocess.run([sys.executable, "-m", "spinhier.cli", *argv],
                           capture_output=True, check=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, f"non-deterministic output: {argv}"
        assert runs[0].stdout  # every subcommand actually emits something
        if argv[0] in C13_GOLDEN_STDOUT:
            assert runs[0].stdout == C13_GOLDEN_STDOUT[argv[0]], f"stdout changed: {argv}"
    _report(13, f"{len(invocations)} subcommands byte-identical across repeated runs, "
                f"{len(C13_GOLDEN_STDOUT)} equal to their pinned stdout")
