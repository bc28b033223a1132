"""Batch command line: JSON matrices and CSV tables for scripts and plotting.

One subcommand per capability; all floats are printed with Python's shortest
round-trip representation, so repeated runs on the same inputs are
byte-identical.  JSON documents go to stdout; the CSV subcommands accept
``--out`` and default to stdout as well.

Complex matrices and amplitude vectors are serialized as nested JSON arrays
whose innermost elements are two-element [re, im] arrays.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import constants as const
from . import dynamics, gates, hierarchy, quantum_dot, wavelet
from .angular_momentum import SpinLabel, couple_pair_matrix

CANONICAL_ORDER = "descending terminal J, ascending M, lexicographic path"


def _pair(z: complex) -> list[float]:
    # + 0.0 folds negative zeros away for tidier documents
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _matrix_payload(matrix) -> list:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix.real)) or not np.all(np.isfinite(matrix.imag)):
        raise ValueError("matrix contains non-finite entries")
    return [[_pair(z) for z in row] for row in matrix]


def _vector_payload(vector) -> list:
    vector = np.asarray(vector, dtype=complex).ravel()
    if not np.all(np.isfinite(vector.real)) or not np.all(np.isfinite(vector.imag)):
        raise ValueError("vector contains non-finite entries")
    return [_pair(z) for z in vector]


def _dumps(document) -> str:
    return json.dumps(document, separators=(",", ":"))


def serialize_matrix(matrix) -> str:
    """Complex matrix as JSON rows of [re, im] pairs; round-trips bit-exactly."""
    return _dumps(_matrix_payload(matrix))


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of :func:`serialize_matrix`."""
    rows = json.loads(text)
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _parse_amplitudes(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("state JSON is nested too deeply") from None
    if isinstance(doc, dict):
        if "amplitudes" not in doc:
            raise ValueError('state object has no "amplitudes" key')
        doc = doc["amplitudes"]
    try:
        return np.array([complex(re, im) for re, im in doc])
    except (TypeError, ValueError, OverflowError):
        raise ValueError("state must be a list of [re, im] number pairs") from None


def _spin_value(twice_j: int):
    return twice_j // 2 if twice_j % 2 == 0 else twice_j / 2


def _parse_area(text: str) -> float:
    """Pulse areas like 'pi', 'pi/2', '2pi', or a plain float."""
    cleaned = text.strip().lower().replace(" ", "").replace("*", "")
    if "pi" in cleaned:
        head, _, tail = cleaned.partition("pi")
        value = math.pi
        if head:
            value *= float(head)
        if tail:
            if not tail.startswith("/"):
                raise ValueError(f"cannot parse area {text!r}")
            divisor = float(tail[1:])
            if divisor == 0.0:
                raise ValueError(f"area {text!r} divides by zero")
            value /= divisor
    else:
        value = float(cleaned)
    if not math.isfinite(value):
        raise ValueError(f"area must be finite, got {text!r}")
    return value


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _csv_float(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- subcommands

def _cmd_decompose(args) -> None:
    content = hierarchy.register_content(args.qubits)
    doc = {
        "content": [{"J": _spin_value(s.twice_j), "mult": m} for s, m in content],
        "check": sum((s.twice_j + 1) * m for s, m in content),
    }
    print(_dumps(doc))


def _cmd_ladder(args) -> None:
    dims = hierarchy.ladder_dimensions(args.levels)
    doc = {"V0": dims.v[0], "W": list(dims.w), "VM": dims.v[-1]}
    print(_dumps(doc))


def _cmd_transform(args) -> None:
    tree = hierarchy.build_coupling_tree(args.qubits)
    matrix = hierarchy.hierarchic_transform(tree)
    amplitudes = _parse_amplitudes(_read_text(args.infile))
    if amplitudes.size != 2 ** args.qubits:
        raise ValueError(
            f"state has {amplitudes.size} amplitudes, expected {2 ** args.qubits}"
        )
    # A linear map: any finite vector is accepted, normalized or not.
    if not np.all(np.isfinite(amplitudes)):
        raise ValueError("state amplitudes must be finite")
    # an overflow gives inf or nan, which _vector_payload rejects
    with np.errstate(over="ignore", invalid="ignore"):
        if args.direction == "forward":
            result = matrix.conj().T @ amplitudes
            basis = "multiplet"
        else:
            result = matrix @ amplitudes
            basis = "product"
    states = hierarchy.multiplet_basis_states(tree)
    doc = {
        "qubits": args.qubits,
        "direction": args.direction,
        "basis": basis,
        "ordering": CANONICAL_ORDER,
        "amplitudes": _vector_payload(result),
        "states": [
            {
                "path": [_spin_value(s.twice_j) for s in st.path],
                "J": _spin_value(st.terminal.twice_j),
                "M": st.terminal.twice_m / 2,
            }
            for st in states
        ],
    }
    print(_dumps(doc))


def _cmd_analyze(args) -> None:
    tree = hierarchy.build_coupling_tree(args.qubits)
    state = _parse_amplitudes(_read_text(args.infile))
    profile = hierarchy.analyze_state(state, tree)
    doc = {"W": list(profile.detail_weights), "VM": profile.final_weight}
    print(_dumps(doc))


def _gate_by_name(name: str) -> np.ndarray:
    table = {
        "cnot": gates.cnot_product,
        "swap": gates.swap_gate,
        "sqrt-swap": gates.sqrt_swap_gate,
        "xor": gates.xor_sequence,
    }
    return table[name]()


def _cmd_gate(args) -> None:
    matrix = _gate_by_name(args.name)
    if gates.BasisTag(args.basis) is gates.BasisTag.MULTIPLET:
        pair_basis = couple_pair_matrix(SpinLabel(1), SpinLabel(1))
        matrix = gates.to_multiplet(matrix, pair_basis)
    print(serialize_matrix(matrix))


def _cmd_pulse(args) -> None:
    area = _parse_area(args.area)
    profile = dynamics.pulse_for_area(area, args.j0)
    unitary = dynamics.evolve_pulse(profile, args.steps)
    doc = {
        "area": area,
        "tau_ns": profile.duration_ns,
        "unitary": _matrix_payload(unitary),
        "fidelity_vs_swap": gates.gate_fidelity(unitary, gates.swap_gate()),
    }
    print(_dumps(doc))


def _cmd_jsweep(args) -> None:
    params = quantum_dot.DotParameters.gaas(d=args.d)
    for option in ("bmin", "bmax"):
        if not math.isfinite(getattr(args, option)):
            raise ValueError(f"--{option} must be finite, got {getattr(args, option)}")
    if args.bmin > args.bmax:
        raise ValueError(f"--bmin {args.bmin} exceeds --bmax {args.bmax}")
    fields = np.linspace(args.bmin, args.bmax, args.points)
    results = quantum_dot.sweep_exchange(params, fields, c=args.c)
    lines = ["B_tesla,b,J_meV"]
    for b_field, res in zip(fields, results):
        lines.append(f"{_csv_float(b_field)},{_csv_float(res.b)},{_csv_float(res.j_mev)}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_haar(args) -> None:
    values = [float(line) for line in _read_text(args.infile).split() if line.strip()]
    bad = next((v for v in values if not math.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"input values must be finite, got {bad}")
    if args.inverse:
        n = len(values)
        if n == 0 or n & (n - 1):
            raise ValueError(f"coefficient count must be a power of two, got {n}")
        max_levels = n.bit_length() - 1
        if not 0 <= args.levels <= max_levels:
            raise ValueError(f"levels must be in 0..{max_levels} for length {n}")
        coarse_len = n >> args.levels
        approx = np.array(values[:coarse_len])
        pos = coarse_len
        details = []
        for level in range(args.levels, 0, -1):
            length = n >> level
            details.append(np.array(values[pos:pos + length]))
            pos += length
        decomposition = wavelet.PyramidDecomposition(approx, tuple(reversed(details)))
        # an overflow gives inf or nan, which the check below rejects
        with np.errstate(over="ignore", invalid="ignore"):
            out_values = wavelet.pyramid_inverse(decomposition)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            decomposition = wavelet.pyramid_forward(np.array(values), args.levels)
        stacked = [decomposition.approximation]
        stacked.extend(reversed(decomposition.details))  # coarsest detail first
        out_values = np.concatenate(stacked)
    if not np.all(np.isfinite(out_values)):
        raise ValueError("result overflows the float range")
    _emit("\n".join(_csv_float(v) for v in out_values) + "\n", args.out)


def _cmd_estimates(args) -> None:
    params = quantum_dot.DotParameters(
        g=args.g, hbar_omega0=args.hbar_omega0, mass_ratio=args.mass_ratio,
        epsilon=args.epsilon, d=args.d,
    )
    est = quantum_dot.physical_estimates(params)
    doc = {
        "a_B_nm": est.a_b_nm,
        "spin_orbit_ratio": est.spin_orbit_ratio,
        "dipole_meV": est.dipole_mev,
    }
    print(_dumps(doc))


def _cmd_constants(_args) -> None:
    print(_dumps(const.constants_table()))


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinhier",
        description="Hierarchic spin-register toolkit: multiplet decompositions, "
                    "gates, exchange pulses, dot physics, and Haar pyramids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="total-spin content of a register")
    p.add_argument("--qubits", type=int, required=True, help="register size, 1..16")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("ladder", help="dimensions of the V/W ladder")
    p.add_argument("--levels", type=int, required=True, help="number of levels M")
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser("transform", help="apply the hierarchic change of basis")
    p.add_argument("--qubits", type=int, required=True, help="register size (power of two)")
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON state: [[re,im],...] or {\"amplitudes\": ...}; any finite "
                        "vector (the map is linear, so the norm is not checked)")
    p.add_argument("--direction", choices=["forward", "inverse"], default="forward",
                   help="forward: product to multiplet amplitudes")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("analyze", help="ladder profile of a register state")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON state as for transform; its norm must be 1 within 1e-6")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gate", help="two-qubit gate constant as a JSON matrix")
    p.add_argument("--name", choices=["cnot", "swap", "sqrt-swap", "xor"], required=True)
    p.add_argument("--basis", choices=["product", "multiplet"], default="product")
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("pulse", help="evolve a constant exchange pulse")
    p.add_argument("--j0", type=float, required=True, help="pulse height in meV")
    p.add_argument("--area", required=True, help="dimensionless area, e.g. pi or pi/2")
    p.add_argument("--steps", type=int, default=1024, help="integrator steps")
    p.set_defaults(func=_cmd_pulse)

    p = sub.add_parser("jsweep", help="exchange coupling versus magnetic field (CSV)")
    p.add_argument("--bmin", type=float, default=0.0, help="lowest field in Tesla")
    p.add_argument("--bmax", type=float, default=2.0, help="highest field in Tesla")
    p.add_argument("--points", type=int, default=201, help="number of field points")
    p.add_argument("--d", type=float, default=0.7, help="half-distance in Bohr radii")
    p.add_argument("--c", type=float, default=None,
                   help="Coulomb parameter (default: derived from GaAs values)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_jsweep)

    p = sub.add_parser("haar", help="Haar pyramid of a CSV signal (one value per line)")
    p.add_argument("--in", dest="infile", required=True, help="input CSV")
    p.add_argument("--levels", type=int, required=True, help="decomposition depth")
    p.add_argument("--inverse", action="store_true",
                   help="reconstruct from coefficients instead")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_haar)

    p = sub.add_parser("estimates", help="physical scale estimates of a dot pair")
    p.add_argument("--g", type=float, default=-0.44)
    p.add_argument("--hbar-omega0", type=float, default=3.0, help="confinement in meV")
    p.add_argument("--mass-ratio", type=float, default=0.067)
    p.add_argument("--epsilon", type=float, default=13.1)
    p.add_argument("--d", type=float, default=0.7)
    p.set_defaults(func=_cmd_estimates)

    p = sub.add_parser("constants", help="dump the pinned constants table")
    p.set_defaults(func=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse turns "--opt=--" into [] without calling the option's type
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument {name}: expected one value, got '--'")
    try:
        args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
