"""Batch command line: JSON matrices and CSV tables for scripts and plotting.

One subcommand per capability, whose handler returns its output and writes
nothing: ``main`` writes a JSON document to stdout and CSV text to ``--out``
or stdout.  Floats are printed as Python's shortest round-trip repr, so
repeated runs on the same inputs are byte-identical.

numpy and the numerical modules are loaded in the handlers that use them:
``decompose``, ``ladder``, ``estimates`` and ``constants`` load no numpy,
only ``register``, ``constants`` and, for ``estimates``, the scalar
functions of ``quantum_dot``.  Every number, in an option or an input line,
is ASCII with no '_'.  A handler checks nothing that the library checks:
``transform`` and ``analyze`` call the hierarchy's state check and apply,
``haar --inverse`` the pyramid's length and depth check, and ``pulse``
leaves the finiteness of its area to ``pulse_for_area``.  ``register._finite``
refuses a result that overflows, in ``transform`` and in the library alike.

Complex matrices and amplitude vectors are serialized as nested JSON arrays
whose innermost elements are two-element [re, im] arrays.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import constants as const
from . import register

CANONICAL_ORDER = "descending terminal J, ascending M, lexicographic path"


def _payload(array) -> list:
    """Nested [re, im] pairs of a complex array; + 0.0 folds -0.0 away."""
    import numpy as np

    array = np.asarray(array, dtype=complex)
    return (np.stack((array.real, array.imag), -1) + 0.0).tolist()


def _dumps(document) -> str:
    """The JSON text of ``document``; a nan or inf anywhere in it raises ValueError."""
    return json.dumps(document, separators=(",", ":"), allow_nan=False)


def _parse_amplitudes(text: str):
    """Complex numpy vector of a JSON state, [[re, im], ...] or {"amplitudes": ...};
    an entry that is not a number pair, bools included, raises ValueError."""
    import numpy as np

    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("state JSON is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"state is not valid JSON: {exc}") from None
    if isinstance(doc, dict):
        if "amplitudes" not in doc:
            raise ValueError('state object has no "amplitudes" key')
        doc = doc["amplitudes"]
    try:
        if any(type(x) is bool for pair in doc for x in pair):
            raise TypeError
        return np.array([complex(re, im) for re, im in doc])
    except (TypeError, ValueError, OverflowError):
        raise ValueError("state must be a list of [re, im] number pairs") from None


def _read_state(args):
    """The coupling tree of ``--qubits`` and the state of ``--in``, in that
    order: a register above the dense size is refused before the input is read."""
    from . import hierarchy

    tree = hierarchy.build_coupling_tree(args.qubits)
    hierarchy._check_dense(tree.num_qubits)
    return tree, _parse_amplitudes(_read_text(args.infile))


def _spin_value(twice_j: int):
    return twice_j // 2 if twice_j % 2 == 0 else twice_j / 2


def _plain_number(text: str) -> str:
    """``text`` if it is ASCII with no '_'; int() and float() would also read
    '_' separators and non-ASCII digits.  ValueError otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError
    return text


def _int(text: str) -> int:
    return int(_plain_number(text))


def _float(text: str) -> float:
    """float() of a plain number; other text raises ValueError quoting it."""
    try:
        return float(_plain_number(text))
    except ValueError:
        raise ValueError(f"cannot parse value {text!r}") from None


# argparse names the type in its refusal: "invalid int value: '1_6'"
_int.__name__, _float.__name__ = "int", "float"


def _zero_as_written(number: str) -> bool:
    """Whether a number's mantissa, the text before any exponent, has no digit 1-9."""
    return not any(digit in "123456789" for digit in number.partition("e")[0])


def _parse_area(text: str) -> float:
    """Pulse areas like 'pi', '-pi/2', '2pi', or a plain float, each number a
    plain one; any other spelling raises ValueError quoting ``text``, and so
    does a divisor of zero or an area that underflows to 0.0."""
    cleaned = text.strip().lower().replace(" ", "").replace("*", "")
    head, pi, tail = cleaned.partition("pi")
    numerator = head + "1" if pi and head in ("", "+", "-") else head
    try:
        _plain_number(cleaned)
        if tail[:1] not in ("", "/"):
            raise ValueError
        value = float(numerator) * (math.pi if pi else 1.0)
        divisor = float(tail[1:]) if tail else 1.0
    except ValueError:
        raise ValueError(f"cannot parse area {text!r}") from None
    if divisor == 0.0:
        if not _zero_as_written(tail[1:]):
            raise ValueError(f"area {text!r} has a divisor that underflows to 0.0")
        raise ValueError(f"area {text!r} divides by zero")
    area = value / divisor
    if area == 0.0 and not _zero_as_written(numerator):
        raise ValueError(f"area {text!r} underflows to 0.0")
    return area


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path!r} is not UTF-8 text: {exc}") from None


def _csv(*columns) -> str:
    """CSV rows of equal-length columns, each cell the repr of its float."""
    return "\n".join(map(",".join, zip(*(map(repr, map(float, c)) for c in columns)))) + "\n"


def _given(args, *names) -> dict:
    """The given options of ``names``, by name, to replace in ``DotParameters.gaas()``."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


# ---------------------------------------------------------------- subcommands

def _cmd_decompose(args) -> dict:
    content = register.register_content(args.qubits)
    return {
        "content": [{"J": _spin_value(s.twice_j), "mult": m} for s, m in content],
        "check": sum((s.twice_j + 1) * m for s, m in content),
    }


def _cmd_ladder(args) -> dict:
    dims = register.ladder_dimensions(args.levels)
    return {"V0": dims.v[0], "W": list(dims.w), "VM": dims.v[-1]}


def _cmd_transform(args) -> dict:
    import numpy as np
    from . import hierarchy

    tree, amplitudes = _read_state(args)
    amplitudes = hierarchy._check_state(amplitudes, tree)
    # A linear map: any finite vector is accepted, normalized or not.
    register._finite(amplitudes, "state amplitudes must be finite")
    inverse = args.direction == "inverse"
    # checked here, not in the shared apply: one errstate there slows the descent 2-4 %
    with np.errstate(over="ignore", invalid="ignore"):
        result = register._finite(hierarchy._apply_transform(amplitudes, args.qubits, inverse))
    return {
        "qubits": args.qubits,
        "direction": args.direction,
        "basis": "product" if inverse else "multiplet",
        "ordering": CANONICAL_ORDER,
        "amplitudes": _payload(result),
        "states": [
            {
                "path": [_spin_value(s.twice_j) for s in st.path],
                "J": _spin_value(st.terminal.twice_j),
                "M": st.terminal.twice_m / 2,
            }
            for st in hierarchy.multiplet_basis_states(tree)
        ],
    }


def _cmd_analyze(args) -> dict:
    from . import hierarchy

    tree, state = _read_state(args)
    profile = hierarchy.analyze_state(state, tree)
    return {"W": list(profile.detail_weights), "VM": profile.final_weight}


# The gate constructors of ``gates`` by ``gate --name``: names, not functions,
# so that importing this module loads no numpy.
_GATES = {"cnot": "cnot_product", "swap": "swap_gate", "sqrt-swap": "sqrt_swap_gate",
          "xor": "xor_sequence"}


def _cmd_gate(args) -> list:
    from . import gates
    from .angular_momentum import SpinLabel, couple_pair_matrix

    matrix = getattr(gates, _GATES[args.name])()
    if args.basis == "multiplet":
        pair_basis = couple_pair_matrix(SpinLabel(1), SpinLabel(1))
        matrix = gates.to_multiplet(matrix, pair_basis)
    return _payload(matrix)


# A constant pulse gives the same gate at every step count (within 1e-15).
_PULSE_STEPS = 1024


def _cmd_pulse(args) -> dict:
    from . import dynamics, gates

    area = _parse_area(args.area)
    profile = dynamics.pulse_for_area(area, args.j0)
    unitary = dynamics.evolve_pulse(profile, _PULSE_STEPS)
    return {
        "area": area,
        "tau_ns": profile.duration_ns,
        "unitary": _payload(unitary),
        "fidelity_vs_swap": gates.gate_fidelity(unitary, gates.swap_gate()),
    }


# The most float64 values one numpy array can hold (2^60 - 1 on a 64-bit
# build); np.linspace raises an IndexError on some larger counts.
_MAX_POINTS = sys.maxsize // 8


def _cmd_jsweep(args) -> str:
    import numpy as np
    from . import quantum_dot

    params = quantum_dot.DotParameters.gaas()._replace(**_given(args, "d"))
    bmin, bmax = register._as_float("--bmin", args.bmin), register._as_float("--bmax", args.bmax)
    if bmin > bmax:
        raise ValueError(f"--bmin {bmin} exceeds --bmax {bmax}")
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if args.points > _MAX_POINTS:
        raise ValueError(f"--points must be at most {_MAX_POINTS}, got {args.points}")
    # an overflow gives inf or nan, which sweep_exchange refuses
    with np.errstate(all="ignore"):
        fields = np.linspace(bmin, bmax, args.points)
    b, _, j_mev = zip(*quantum_dot.sweep_exchange(params, fields, c=args.c))
    return "B_tesla,b,J_meV\n" + _csv(fields, b, j_mev)


def _cmd_haar(args) -> str:
    import numpy as np
    from . import wavelet

    values = np.array([_float(line) for line in _read_text(args.infile).split()])
    register._finite(values, "input values must be finite")
    if args.inverse:
        n = len(values)
        offsets = [n >> level for level in range(wavelet._check_levels(n, args.levels), 0, -1)]
        approx, *details = np.split(values, offsets)  # coarsest detail first
        decomposition = wavelet.PyramidDecomposition(approx, tuple(reversed(details)))
        out_values = wavelet.pyramid_inverse(decomposition)
    else:
        decomposition = wavelet.pyramid_forward(values, args.levels)
        out_values = np.concatenate(  # coarsest detail first
            [decomposition.approximation, *reversed(decomposition.details)])
    return _csv(out_values)


def _cmd_estimates(args) -> dict:
    from . import quantum_dot

    params = quantum_dot.DotParameters.gaas()._replace(
        **_given(args, "g", "hbar_omega0", "mass_ratio", "d"))
    est = quantum_dot.physical_estimates(params)
    return {"a_B_nm": est.a_b_nm, "spin_orbit_ratio": est.spin_orbit_ratio,
            "dipole_meV": est.dipole_mev}


def _cmd_constants(_args) -> dict:
    return const.constants_table()


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinhier",
        description="Hierarchic spin-register toolkit: multiplet decompositions, "
                    "gates, exchange pulses, dot physics, and Haar pyramids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="total-spin content of a register")
    p.add_argument("--qubits", type=_int, required=True, help="register size, 1..4096")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("ladder", help="dimensions of the V/W ladder")
    p.add_argument("--levels", type=_int, required=True, help="number of levels M")
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser("transform", help="apply the hierarchic change of basis")
    p.add_argument("--qubits", type=_int, required=True, help="register size (power of two)")
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON state: [[re,im],...] or {\"amplitudes\": ...}; any finite "
                        "vector (the map is linear, so the norm is not checked)")
    p.add_argument("--direction", choices=["forward", "inverse"], default="forward",
                   help="forward: product to multiplet amplitudes")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("analyze", help="ladder profile of a register state")
    p.add_argument("--qubits", type=_int, required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON state as for transform; its norm must be 1 within 1e-6")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gate", help="two-qubit gate constant as a JSON matrix")
    p.add_argument("--name", choices=list(_GATES), required=True)
    p.add_argument("--basis", choices=["product", "multiplet"], default="product",
                   help="multiplet: the pair basis of couple_pair_matrix, ascending J "
                        "(singlet, then the triplet at M = -1, 0, +1), not transform's order")
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("pulse", help="evolve a constant exchange pulse")
    p.add_argument("--j0", type=_float, required=True, help="pulse height in meV")
    p.add_argument("--area", required=True, help="dimensionless area, e.g. pi or pi/2")
    p.set_defaults(func=_cmd_pulse)

    p = sub.add_parser("jsweep", help="exchange coupling versus magnetic field (CSV)")
    p.add_argument("--bmin", type=_float, default=0.0, help="lowest field in Tesla")
    p.add_argument("--bmax", type=_float, default=2.0, help="highest field in Tesla")
    p.add_argument("--points", type=_int, default=201, help="number of field points")
    p.add_argument("--d", type=_float, help="half-distance in Bohr radii (default: GaAs)")
    p.add_argument("--c", type=_float, default=None,
                   help="Coulomb parameter (default: derived from GaAs values)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_jsweep)

    p = sub.add_parser("haar", help="Haar pyramid of a CSV signal (one value per line)")
    p.add_argument("--in", dest="infile", required=True, help="input CSV")
    p.add_argument("--levels", type=_int, required=True, help="decomposition depth")
    p.add_argument("--inverse", action="store_true",
                   help="reconstruct from coefficients instead")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_haar)

    p = sub.add_parser("estimates", help="physical scale estimates of a dot pair "
                                         "(GaAs values unless given)")
    p.add_argument("--g", type=_float)
    p.add_argument("--hbar-omega0", type=_float, help="confinement in meV")
    p.add_argument("--mass-ratio", type=_float)
    p.add_argument("--d", type=_float, help="half-distance in Bohr radii; no estimate uses it")
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
        output = args.func(args)
        text = output if isinstance(output, str) else _dumps(output) + "\n"
        if getattr(args, "out", None) is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
