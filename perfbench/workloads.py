"""The three benchmark workloads: seeded inputs, one op, and the checks on it.

Every workload has the same shape:

- ``setup()`` does the program-side work a user pays before the first op;
- ``inputs(rng, workdir)`` draws the seeded input pool the ops cycle through;
- ``op(tracer, inp)`` is one timed op, every package call wrapped in a span;
- ``check(inp, out)`` returns the failures found in one op's output.

Only public entry points that the planned refactors keep are called: no
transform cache, no ``filters=`` argument, no private names.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from spinhier import dynamics, gates, hierarchy, quantum_dot, wavelet
from spinhier.angular_momentum import MultipletLabel, SpinLabel, cg, couple_pair_matrix
from spinhier.constants import constants_table

STATE_QUBITS = 8
FIELD_POINTS = 2001
SIGNAL_SAMPLES = 2 ** 16
PULSE_STEPS = 2 ** 16
CLI_HAAR_SAMPLES = 4096


def time_cold_transform() -> float:
    """Milliseconds to build the 8-qubit transform; cold only in a fresh process."""
    start = perf_counter()
    hierarchy.hierarchic_transform(hierarchy.build_coupling_tree(STATE_QUBITS))
    return (perf_counter() - start) * 1e3


def haar_random_state(rng, dim: int) -> np.ndarray:
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return state / np.linalg.norm(state)


def symmetric_state(rng, qubits: int) -> np.ndarray:
    """Random state of the symmetric (maximal-spin) subspace of ``qubits`` qubits:
    a random superposition of the normalized Dicke states."""
    weight = np.array([bin(i).count("1") for i in range(2 ** qubits)])
    coeffs = rng.standard_normal(qubits + 1) + 1j * rng.standard_normal(qubits + 1)
    dicke_norm = np.sqrt([math.comb(qubits, int(w)) for w in weight])
    state = coeffs[weight] / dicke_norm
    return state / np.linalg.norm(state)


def block_state(rng, level: int) -> np.ndarray:
    """Product of independent maximal-spin states on blocks of 2^level qubits,
    so the state lies in V_level and has no weight in W_1 ... W_level."""
    blocks = [symmetric_state(rng, 2 ** level) for _ in range(STATE_QUBITS >> level)]
    state = blocks[0]
    for block in blocks[1:]:
        state = np.kron(state, block)
    return state


@lru_cache(maxsize=None)
def closed_form_content(num_spins: int) -> tuple[tuple[int, int], ...]:
    """(2J, multiplicity) of ``num_spins`` spin-1/2, descending J:
    C(N, N/2 - J) - C(N, N/2 - J - 1)."""
    out = []
    for twice_j in range(num_spins, -1, -2):
        k = (num_spins - twice_j) // 2
        out.append((twice_j, math.comb(num_spins, k) - (math.comb(num_spins, k - 1) if k else 0)))
    return tuple(out)


def _close(a, b, tol: float = 1e-12) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _all_close(got, want, tol: float = 1e-12) -> bool:
    return len(got) == len(want) and all(_close(a, b, tol) for a, b in zip(got, want))


def _flat_complex(values) -> list[float]:
    return [x for z in np.ravel(values) for x in (float(z.real), float(z.imag))]


# ---------------------------------------------------------------- states8

def _apply_adjoint(u, state):
    return u.conj().T @ state


class States8:
    """The paper's pipeline on 8-qubit states, transform cache warm."""

    name = "states8"
    KINDS = ("haar", "block0", "block1", "block2", "block3")
    LEVELS = (0, 1, 2, 3)
    POOL_PER_KIND = 8

    def setup(self) -> None:
        self.tree = hierarchy.build_coupling_tree(STATE_QUBITS)
        self.transform_cold_ms = time_cold_transform()

    def inputs(self, rng, workdir):
        pool = []
        for _ in range(self.POOL_PER_KIND):
            for kind in self.KINDS:
                if kind == "haar":
                    pool.append((kind, haar_random_state(rng, 2 ** STATE_QUBITS)))
                else:
                    pool.append((kind, block_state(rng, int(kind[-1]))))
        return pool

    def op(self, t, inp):
        _, state = inp
        u = t.call("hierarchy.hierarchic_transform", hierarchy.hierarchic_transform, self.tree)
        labels = t.call("hierarchy.multiplet_basis_states",
                        hierarchy.multiplet_basis_states, self.tree)
        amplitudes = t.call("hierarchy.transform_apply", _apply_adjoint, u, state)
        profile = t.call("hierarchy.analyze_state", hierarchy.analyze_state, state, self.tree)
        reduced = [
            t.call(f"hierarchy.reduce_to_level.l{level}",
                   hierarchy.reduce_to_level, state, self.tree, level)
            for level in self.LEVELS
        ]
        return u, labels, amplitudes, profile, reduced

    def check(self, inp, out) -> list[str]:
        kind, state = inp
        u, labels, amplitudes, profile, reduced = out
        errors = []
        if len(labels) != u.shape[1]:
            errors.append(f"{len(labels)} labels for {u.shape[1]} columns")
        if abs(np.linalg.norm(amplitudes) - 1.0) > 1e-12:
            errors.append(f"|U^dag psi| = {np.linalg.norm(amplitudes)!r}")
        if np.max(np.abs(u @ amplitudes - state)) > 1e-12:
            errors.append("inverse round trip failed")
        weights = profile.detail_weights + (profile.final_weight,)
        if abs(sum(weights) - 1.0) > 1e-10:
            errors.append(f"ladder weights sum to {sum(weights)!r}")
        if kind != "haar":
            level = int(kind[-1])
            if sum(profile.detail_weights[:level]) > 1e-10:
                errors.append(f"{kind} state has weight in W_1..W_{level}")
            if level == STATE_QUBITS.bit_length() - 1 and abs(profile.final_weight - 1.0) > 1e-10:
                errors.append(f"{kind} state puts {profile.final_weight!r} in VM")
        for level, (rho, level_labels) in zip(self.LEVELS, reduced):
            if rho.shape != (len(level_labels), len(level_labels)):
                errors.append(f"rho at level {level} does not match its labels")
            if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
                errors.append(f"rho at level {level} is not Hermitian")
            if abs(np.trace(rho) - 1.0) > 1e-10:
                errors.append(f"rho at level {level} has trace {np.trace(rho)!r}")
        return errors


# ---------------------------------------------------------------- device_signal

@dataclass(frozen=True)
class DeviceInput:
    d: float
    fields: np.ndarray
    spot_fields: tuple[int, ...]
    signal: np.ndarray
    area: float
    j0_mev: float


class DeviceSignal:
    """Dot physics, pulse dynamics, gates and the Haar baseline; no hierarchy."""

    name = "device_signal"
    POOL = 8

    def setup(self) -> None:
        self.pair_basis = couple_pair_matrix(SpinLabel(1), SpinLabel(1))
        self.swap = gates.swap_gate()
        self.phase_flip = gates.conditional_phase_flip()

    def inputs(self, rng, workdir):
        pool = []
        for _ in range(self.POOL):
            b_max = rng.uniform(1.0, 4.0)
            pool.append(DeviceInput(
                d=float(rng.uniform(0.5, 0.9)),
                fields=np.sort(rng.uniform(0.0, b_max, FIELD_POINTS)),
                spot_fields=tuple(int(i) for i in rng.choice(FIELD_POINTS, 3, replace=False)),
                signal=rng.standard_normal(SIGNAL_SAMPLES),
                area=float(rng.uniform(0.25 * math.pi, 2.0 * math.pi)),
                j0_mev=float(rng.uniform(0.05, 1.0)),
            ))
        return pool

    def op(self, t, inp: DeviceInput):
        params = t.call("quantum_dot.DotParameters.gaas", quantum_dot.DotParameters.gaas, d=inp.d)
        sweep = t.call("quantum_dot.sweep_exchange", quantum_dot.sweep_exchange,
                       params, inp.fields)
        depth = SIGNAL_SAMPLES.bit_length() - 1
        pyramid = t.call("wavelet.pyramid_forward", wavelet.pyramid_forward, inp.signal, depth)
        restored = t.call("wavelet.pyramid_inverse", wavelet.pyramid_inverse, pyramid)
        pulse = t.call("dynamics.pulse_for_area", dynamics.pulse_for_area, inp.area, inp.j0_mev)
        unitary = t.call("dynamics.evolve_pulse", dynamics.evolve_pulse, pulse, PULSE_STEPS)
        fidelity = t.call("gates.gate_fidelity", gates.gate_fidelity, unitary, self.swap)
        xor = t.call("gates.xor_sequence", gates.xor_sequence)
        xor_multiplet = t.call("gates.to_multiplet", gates.to_multiplet, xor, self.pair_basis)
        return sweep, pyramid, restored, unitary, fidelity, xor, xor_multiplet

    def check(self, inp: DeviceInput, out) -> list[str]:
        sweep, pyramid, restored, unitary, fidelity, xor, xor_multiplet = out
        errors = []
        j_values = np.array([res.j_mev for res in sweep])
        if len(sweep) != FIELD_POINTS or not np.all(np.isfinite(j_values)):
            errors.append("sweep is short or has non-finite J")
        for i in inp.spot_fields:
            spot = quantum_dot.exchange_at_field(
                quantum_dot.DotParameters.gaas(d=inp.d, b_field=float(inp.fields[i])))
            if not _close(spot.j_mev, sweep[i].j_mev):
                errors.append(f"sweep point {i} disagrees with exchange_at_field")
        scale = np.max(np.abs(inp.signal))
        if np.max(np.abs(restored - inp.signal)) > 1e-10 * scale:
            errors.append("Haar round trip failed")
        energy = float(np.dot(inp.signal, inp.signal))
        coeff_energy = float(np.dot(pyramid.approximation, pyramid.approximation)
                             + sum(np.dot(d, d) for d in pyramid.details))
        if abs(energy - coeff_energy) > 1e-10 * energy:
            errors.append("Haar pyramid breaks Parseval")
        if gates.unitarity_defect(unitary) > 1e-12:
            errors.append("pulse propagator is not unitary")
        # constant pulse of area a: |tr(U^dag SWAP)| / 4 = sqrt(10 - 6 cos a) / 4
        if not _close(fidelity, math.sqrt(10.0 - 6.0 * math.cos(inp.area)) / 4.0, 1e-9):
            errors.append(f"pulse fidelity vs swap {fidelity!r}")
        if abs(gates.gate_fidelity(xor, self.phase_flip) - 1.0) > 1e-12:
            errors.append("XOR sequence is not the conditional phase flip")
        if np.max(np.abs(self.pair_basis @ xor_multiplet @ self.pair_basis.T - xor)) > 1e-12:
            errors.append("to_multiplet is not the similarity transform")
        return errors


# ---------------------------------------------------------------- cli_cold

def _write_state(path, state) -> None:
    path.write_text(json.dumps({"amplitudes": [[z.real, z.imag] for z in state]}))


def _run_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "spinhier.cli", *argv],
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class CliCold:
    """Serial ``python -m spinhier.cli`` calls cycling through every subcommand.

    Each input is (subcommand, argv, expected numbers).  Expected numbers come
    from the same library calls made in this process.
    """

    name = "cli_cold"

    def __init__(self):
        self.first_stdout: dict[str, bytes] = {}

    def setup(self) -> None:
        import spinhier.cli  # noqa: F401  (what every CLI call imports)

    def inputs(self, rng, workdir):
        tree = hierarchy.build_coupling_tree(STATE_QUBITS)
        pool = []

        # register sizes up to 16, the documented ceiling; the expected
        # content is the closed form, whose dimensions sum to 2^n
        n = int(rng.integers(2, 17))
        want = [x for pair in closed_form_content(n) for x in pair]
        pool.append(("decompose", ["--qubits", str(n)], want + [2 ** n]))

        levels = int(rng.integers(1, 13))
        dims = hierarchy.ladder_dimensions(levels)
        pool.append(("ladder", ["--levels", str(levels)], [dims.v[0], *dims.w, dims.v[-1]]))

        state = haar_random_state(rng, 2 ** STATE_QUBITS)
        _write_state(workdir / "transform.json", state)
        u = hierarchy.hierarchic_transform(tree)
        labels = [x for st in hierarchy.multiplet_basis_states(tree)
                  for x in (*(s.twice_j for s in st.path), st.terminal.twice_j,
                            st.terminal.twice_m)]
        pool.append(("transform", ["--qubits", str(STATE_QUBITS), "--in",
                                   str(workdir / "transform.json"), "--direction", "forward"],
                     _flat_complex(u.conj().T @ state) + labels))

        state = haar_random_state(rng, 2 ** STATE_QUBITS)
        _write_state(workdir / "analyze.json", state)
        profile = hierarchy.analyze_state(state, tree)
        pool.append(("analyze", ["--qubits", str(STATE_QUBITS), "--in",
                                 str(workdir / "analyze.json")],
                     [*profile.detail_weights, profile.final_weight]))

        name = str(rng.choice(["cnot", "swap", "sqrt-swap", "xor"]))
        basis = str(rng.choice(["product", "multiplet"]))
        matrix = {"cnot": gates.cnot_product, "swap": gates.swap_gate,
                  "sqrt-swap": gates.sqrt_swap_gate, "xor": gates.xor_sequence}[name]()
        if basis == "multiplet":
            matrix = gates.to_multiplet(matrix, couple_pair_matrix(SpinLabel(1), SpinLabel(1)))
        pool.append(("gate", ["--name", name, "--basis", basis], _flat_complex(matrix)))

        j0 = float(rng.uniform(0.1, 2.0))
        turns, divisor = int(rng.integers(1, 8)), int(rng.choice([1, 2, 4]))
        area = math.pi * turns / divisor
        pulse = dynamics.pulse_for_area(area, j0)
        unitary = dynamics.evolve_pulse(pulse, 1024)
        pool.append(("pulse", ["--j0", repr(j0), "--area", f"{turns}pi/{divisor}"],
                     [area, pulse.duration_ns, *_flat_complex(unitary),
                      gates.gate_fidelity(unitary, gates.swap_gate())]))

        b_max, d = float(rng.uniform(1.0, 4.0)), float(rng.uniform(0.5, 0.9))
        fields = np.linspace(0.0, b_max, FIELD_POINTS)
        sweep = quantum_dot.sweep_exchange(quantum_dot.DotParameters.gaas(d=d), fields)
        pool.append(("jsweep", ["--bmin", "0", "--bmax", repr(b_max), "--points",
                                str(FIELD_POINTS), "--d", repr(d)],
                     [x for b, res in zip(fields, sweep) for x in (float(b), res.b, res.j_mev)]))

        signal = rng.standard_normal(CLI_HAAR_SAMPLES)
        (workdir / "signal.csv").write_text("".join(f"{x!r}\n" for x in signal.tolist()))
        depth = int(rng.integers(1, CLI_HAAR_SAMPLES.bit_length()))
        pyramid = wavelet.pyramid_forward(signal, depth)
        stacked = np.concatenate([pyramid.approximation, *reversed(pyramid.details)])
        pool.append(("haar", ["--in", str(workdir / "signal.csv"), "--levels", str(depth)],
                     stacked.tolist()))

        d, omega = float(rng.uniform(0.5, 0.9)), float(rng.uniform(1.0, 5.0))
        est = quantum_dot.physical_estimates(quantum_dot.DotParameters(
            g=-0.44, hbar_omega0=omega, mass_ratio=0.067, epsilon=13.1, d=d))
        pool.append(("estimates", ["--d", repr(d), "--hbar-omega0", repr(omega)],
                     [est.a_b_nm, est.spin_orbit_ratio, est.dipole_mev]))

        pool.append(("constants", [], list(constants_table().values())))
        return pool

    def op(self, t, inp):
        sub, argv, _ = inp
        return t.call(f"cli.{sub}", _run_cli, [sub, *argv])

    def check(self, inp, out) -> list[str]:
        sub, _, want = inp
        code, stdout, stderr = out
        if code != 0:
            return [f"{sub} exited {code}: {stderr.decode(errors='replace').strip()}"]
        first = self.first_stdout.setdefault(sub, stdout)
        errors = [] if stdout == first else [f"{sub} stdout differs between repeats"]
        if not _all_close(_parse_numbers(sub, stdout.decode()), want):
            errors.append(f"{sub} stdout disagrees with the in-process library call")
        return errors


def _parse_numbers(sub: str, text: str) -> list:
    """The numbers a subcommand printed, in the order the expectations list them."""
    if sub in ("jsweep", "haar"):
        rows = text.splitlines()[1:] if sub == "jsweep" else text.splitlines()
        return [float(x) for row in rows for x in row.split(",")]
    doc = json.loads(text)
    if sub == "decompose":
        return [x for e in doc["content"] for x in (round(2 * e["J"]), e["mult"])] + [doc["check"]]
    if sub == "ladder":
        return [doc["V0"], *doc["W"], doc["VM"]]
    if sub == "transform":
        amplitudes = [x for pair in doc["amplitudes"] for x in pair]
        labels = [round(2 * x) for st in doc["states"]
                  for x in (*st["path"], st["J"], st["M"])]
        return amplitudes + labels
    if sub == "analyze":
        return [*doc["W"], doc["VM"]]
    if sub == "gate":
        return [x for row in doc for pair in row for x in pair]
    if sub == "pulse":
        unitary = [x for row in doc["unitary"] for pair in row for x in pair]
        return [doc["area"], doc["tau_ns"], *unitary, doc["fidelity_vs_swap"]]
    if sub == "estimates":
        return [doc["a_B_nm"], doc["spin_orbit_ratio"], doc["dipole_meV"]]
    return list(doc.values())


# ---------------------------------------------------------------- microbenchmarks

def cg_argument_sets(tree) -> list[tuple]:
    """Every (j1, 2m1, j2, 2m2, target) the transform build of ``tree`` asks for:
    children with spins from the level below, each reachable (J, M)."""
    sets = []
    for level in range(1, tree.levels + 1):
        child_spins = [tj for tj, _ in tree.nodes_at_level(level - 1)[0].content]
        for tj_l in child_spins:
            for tj_r in child_spins:
                for tj in range(abs(tj_l - tj_r), tj_l + tj_r + 1, 2):
                    for tm in range(-tj, tj + 1, 2):
                        for tm_l in range(-tj_l, tj_l + 1, 2):
                            if abs(tm - tm_l) <= tj_r:
                                sets.append((SpinLabel(tj_l), tm_l, SpinLabel(tj_r),
                                             tm - tm_l, MultipletLabel(tj, tm)))
    return sets


def mean_call_us(fn, argument_sets, min_seconds: float = 0.2) -> float:
    """Mean microseconds per call of ``fn`` over repeated passes through the sets."""
    calls = 0
    start = perf_counter()
    while True:
        for args in argument_sets:
            fn(*args)
        calls += len(argument_sets)
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls * 1e6


def angular_momentum_probes() -> dict[str, float]:
    """Per-call cost of the CG coefficient and pair matrix the 8-qubit build uses."""
    tree = hierarchy.build_coupling_tree(STATE_QUBITS)
    cg_sets = cg_argument_sets(tree)
    pairs = sorted({(a.twice_j, b.twice_j) for a, _, b, _, _ in cg_sets})
    pair_sets = [(SpinLabel(a), SpinLabel(b)) for a, b in pairs]
    return {
        "angular_momentum.cg.us": mean_call_us(cg, cg_sets),
        "angular_momentum.couple_pair_matrix.us": mean_call_us(couple_pair_matrix, pair_sets),
    }


WORKLOADS = {w.name: w for w in (States8, DeviceSignal, CliCold)}
