"""Command-line surface: fixtures, round-trips, and error paths."""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinhier import cli, dynamics, gates, hierarchy, quantum_dot
from spinhier.angular_momentum import SpinLabel, couple_pair_matrix
from spinhier.gates import gate_fidelity, swap_gate, to_multiplet


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _complex_matrix(text):
    """The complex matrix of a JSON document of rows of [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in json.loads(text)])


def test_decompose_fixture(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--qubits", "4")
    assert code == 0
    assert out == ('{"content":[{"J":2,"mult":1},{"J":1,"mult":3},'
                   '{"J":0,"mult":2}],"check":16}\n')


def test_decompose_half_integer_spins(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--qubits", "1")
    assert code == 0
    assert json.loads(out) == {"content": [{"J": 0.5, "mult": 1}], "check": 2}


def test_ladder_fixture(capsys):
    code, out, _ = run_cli(capsys, "ladder", "--levels", "2")
    assert code == 0
    assert out == '{"V0":16,"W":[7,4],"VM":5}\n'


def test_integer_subcommands_at_their_ceilings_print_pinned_stdout(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--qubits", "16")
    assert code == 0
    assert out == ('{"content":[{"J":8,"mult":1},{"J":7,"mult":15},{"J":6,"mult":104},'
                   '{"J":5,"mult":440},{"J":4,"mult":1260},{"J":3,"mult":2548},'
                   '{"J":2,"mult":3640},{"J":1,"mult":3432},{"J":0,"mult":1430}],'
                   '"check":65536}\n')
    code, out, _ = run_cli(capsys, "ladder", "--levels", "12")
    assert code == 0
    golden = Path(__file__).parent / "golden" / "ladder_levels_12.txt"
    assert out == golden.read_text(encoding="utf-8")


def test_decompose_at_the_4096_qubit_limit(capsys):
    n = 4096
    code, out, err = run_cli(capsys, "decompose", "--qubits", str(n))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["content"]) == n // 2 + 1
    assert doc["check"] == 2 ** n
    assert len(out.split('"check":')[1].strip().rstrip("}")) == 1234  # digits of 2^4096
    for k in [*range(0, n // 2, 37), n // 2]:  # a spread of k; math.comb is slow at this size
        mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        assert doc["content"][k] == {"J": n // 2 - k, "mult": mult}


PRODUCT_GATES = {"cnot": gates.cnot_product, "swap": gates.swap_gate,
                 "sqrt-swap": gates.sqrt_swap_gate, "xor": gates.xor_sequence}


@pytest.mark.parametrize("name", PRODUCT_GATES)
def test_gate_multiplet_matches_similarity_transform(capsys, name):
    code, out, _ = run_cli(capsys, "gate", "--name", name, "--basis", "multiplet")
    assert code == 0
    got = _complex_matrix(out)
    pair = couple_pair_matrix(SpinLabel(1), SpinLabel(1))
    assert np.max(np.abs(got - to_multiplet(PRODUCT_GATES[name](), pair))) < 1e-12
    if name == "cnot":
        # the pair order of couple_pair_matrix: singlet, then the triplet at M = -1, 0, +1;
        # CNOT fixes down-down, the triplet at M = -1, so row 1 and column 1 are e_1
        e1 = np.eye(4)[1]
        assert np.max(np.abs(got[1] - e1)) < 1e-12 and np.max(np.abs(got[:, 1] - e1)) < 1e-12
        sq2 = 1 / np.sqrt(2)
        assert got[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert got[0, 3] == pytest.approx(sq2, abs=1e-12)
        assert got[3, 3] == pytest.approx(0.0, abs=1e-12)


def _json(array):
    """The document the CLI prints for a complex array."""
    return cli._dumps(cli._payload(array))


def test_json_writer_round_trip():
    assert _json(np.eye(2)) == "[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[1.0,0.0]]]"
    # negative zeros are folded to 0.0 in the document
    assert _json([[complex(-0.0, -0.0), -1.0]]) == "[[[0.0,0.0],[-1.0,0.0]]]"
    pair = couple_pair_matrix(SpinLabel(1), SpinLabel(1))
    assert np.array_equal(_complex_matrix(_json(pair)), pair)
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(_complex_matrix(_json(matrix)), matrix)


@pytest.mark.parametrize("write", [
    lambda: _json(np.array([[np.nan, 0.0], [0.0, 1.0]])),
    lambda: _json([complex(0.0, -np.inf)]),
    lambda: cli._dumps({"fidelity_vs_swap": np.nan}),
    lambda: cli._dumps({"unitary": [[[1.0, 0.0]]], "area": np.inf}),
], ids=["matrix-nan", "vector-inf", "scalar-nan", "scalar-inf"])
def test_json_writer_rejects_non_finite(write):
    # the writer never prints NaN or Infinity, which are not JSON
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        write()


_EDGE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([-0.0, 5e-324, 1e308, -1e308]))


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS), min_size=1, max_size=8))
@example(parts=[(-0.0, 5e-324), (1e308, -1e308), (-5e-324, -0.0)])
def test_json_writer_and_state_reader_round_trip(parts):
    """The state reader inverts the JSON writer bit for bit, -0.0 read back as 0.0."""
    v = np.array([complex(re, im) for re, im in parts])
    got = cli._parse_amplitudes(_json(v))
    assert np.array_equal(got, v)  # -0.0 == 0.0, so the sign is checked apart
    zeros = np.stack((got.real, got.imag))
    assert not np.signbit(zeros[zeros == 0]).any()


@pytest.mark.parametrize("text", [
    "[[true,false]]",
    "[1,2]",
    "[[1,2,3]]",
    "5",
    "[[1" + "0" * 400 + ",0]]",
    '{"amplitudes": 5}',
    '[[1,0],[null,0]]',
    '[[1,0],[0,"x"]]',
], ids=["bools", "bare-numbers", "triples", "not-a-list", "huge-int", "amplitudes-not-a-list",
        "null", "string"])
def test_parse_amplitudes_refuses_entries_that_are_not_number_pairs(text):
    with pytest.raises(ValueError, match=r"^state must be a list of \[re, im\] number pairs$"):
        cli._parse_amplitudes(text)


def test_transform_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(1)
    state = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state /= np.linalg.norm(state)
    infile = tmp_path / "state.json"
    infile.write_text(json.dumps({"amplitudes": [[z.real, z.imag] for z in state]}))

    code, out, _ = run_cli(capsys, "transform", "--qubits", "2", "--in", str(infile),
                           "--direction", "forward")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == "multiplet"
    assert [s["J"] for s in doc["states"]] == [1, 1, 1, 0]

    back = tmp_path / "multiplet.json"
    back.write_text(json.dumps(doc["amplitudes"]))
    code, out, _ = run_cli(capsys, "transform", "--qubits", "2", "--in", str(back),
                           "--direction", "inverse")
    assert code == 0
    recovered = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    assert np.max(np.abs(recovered - state)) < 1e-12


def test_transform_prints_the_librarys_real_products(tmp_path, capsys):
    """Both directions print U^T v or U v formed as one real product per part
    of v, bit for bit: the amplitudes analyze_state and reduce_to_level use."""
    rng = np.random.default_rng(17)
    infile = tmp_path / "state.json"
    for qubits in (1, 2, 4, 8):
        u = hierarchy.hierarchic_transform(hierarchy.build_coupling_tree(qubits))
        for _ in range(3):
            v = rng.standard_normal(2 ** qubits) + 1j * rng.standard_normal(2 ** qubits)
            infile.write_text(json.dumps([[z.real, z.imag] for z in v]))
            for direction, matrix in (("forward", u.T), ("inverse", u)):
                code, out, _ = run_cli(capsys, "transform", "--qubits", str(qubits),
                                       "--in", str(infile), "--direction", direction)
                assert code == 0
                expected = matrix @ v.real + 1j * (matrix @ v.imag)
                pairs = (np.stack((expected.real, expected.imag), -1) + 0.0).tolist()
                assert json.loads(out)["amplitudes"] == pairs, (qubits, direction)


def test_transform_reports_the_dense_size_before_reading_its_input(tmp_path, capsys):
    code, out, err = run_cli(capsys, "transform", "--qubits", "16",
                             "--in", str(tmp_path / "missing.json"))
    assert code == 1 and out == ""
    assert err == "error: dense operations support at most 8 qubits (16 requested)\n"


def test_analyze_reports_the_dense_size_before_reading_its_input(tmp_path, capsys):
    code, out, err = run_cli(capsys, "analyze", "--qubits", "16",
                             "--in", str(tmp_path / "missing.json"))
    assert code == 1 and out == ""
    assert err == "error: dense operations support at most 8 qubits (16 requested)\n"


@pytest.mark.parametrize("qubits,state", [
    (2, [[0.0, 0.0], [-1 / np.sqrt(2), 0.0], [1 / np.sqrt(2), 0.0], [0.0, 0.0]]),
    (8, [[1.0, 0.0] if k == 37 else [0.0, 0.0] for k in range(256)]),
], ids=["singlet", "basis-state-8"])
def test_analyze_subcommand(tmp_path, capsys, qubits, state):
    infile = tmp_path / "state.json"
    infile.write_text(json.dumps(state))
    code, out, _ = run_cli(capsys, "analyze", "--qubits", str(qubits), "--in", str(infile))
    assert code == 0
    doc = json.loads(out)
    profile = hierarchy.analyze_state(np.array([complex(re, im) for re, im in state]),
                                      hierarchy.build_coupling_tree(qubits))
    assert doc == {"W": list(profile.detail_weights), "VM": profile.final_weight}
    if qubits == 2:
        assert doc["W"][0] == pytest.approx(1.0, abs=1e-12)
        assert doc["VM"] == pytest.approx(0.0, abs=1e-12)


def test_pulse_subcommand(capsys):
    code, out, _ = run_cli(capsys, "pulse", "--j0", "1.0", "--area", "pi")
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity_vs_swap"] == pytest.approx(1.0, abs=1e-10)
    unitary = np.array([[complex(re, im) for re, im in row] for row in doc["unitary"]])
    assert gate_fidelity(unitary, swap_gate()) == pytest.approx(1.0, abs=1e-10)
    assert doc["area"] == pytest.approx(np.pi, rel=1e-15)


@pytest.mark.parametrize("area,j0", [("pi", 1.0), ("pi/2", 0.37), ("-3pi/4", -2.0)])
def test_pulse_stdout_is_the_1024_step_gate(capsys, area, j0):
    code, out, _ = run_cli(capsys, "pulse", f"--j0={j0}", f"--area={area}")
    assert code == 0
    profile = dynamics.pulse_for_area(cli._parse_area(area), j0)
    unitary = dynamics.evolve_pulse(profile, 1024)
    pairs = np.stack((unitary.real, unitary.imag), -1) + 0.0
    assert json.loads(out)["unitary"] == pairs.tolist()


def test_pulse_area_spellings(capsys):
    for spelling, value in [("pi/2", np.pi / 2), ("2pi", 2 * np.pi),
                            ("2*pi", 2 * np.pi), ("1.5", 1.5), ("+2pi", 2 * np.pi),
                            ("-pi", -np.pi), ("-pi/2", -np.pi / 2)]:
        # a negative area needs a negative J0 for a positive duration
        j0 = "-1.0" if value < 0 else "1.0"
        code, out, _ = run_cli(capsys, "pulse", f"--j0={j0}", f"--area={spelling}")
        assert code == 0
        assert json.loads(out)["area"] == pytest.approx(value, rel=1e-15)
    outputs = [run_cli(capsys, "pulse", "--j0=-1", f"--area={area}")
               for area in ("-pi", repr(-np.pi))]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    # a negative J0 with an exponent is given as --j0=...; a plain decimal may follow a space
    for j0 in (["--j0=-1e-3"], ["--j0", "-0.5"]):
        code, out, _ = run_cli(capsys, "pulse", *j0, "--area=-pi")
        assert code == 0 and json.loads(out)["area"] == -math.pi


def test_jsweep_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "jsweep", "--bmin", "0", "--bmax", "2",
                         "--points", "21", "--d", "0.7", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "B_tesla,b,J_meV"
    assert len(lines) == 22
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 2.0
    assert np.all(np.diff(rows[:, 0]) > 0)  # ascending field order
    assert rows[:, 2].min() < 0.0 < rows[:, 2].max()


# `jsweep --bmin 0 --bmax 2 --points 11 --d 0.7` as printed when I0 was a
# hand-written series/asymptotic expansion; np.i0 moves J only in the last
# ulps, while the field and b columns must stay exact.
JSWEEP_C13_ROWS = [
    ("0.0", "1.0", 0.7650576219032199),
    ("0.2", "1.0016572660269725", 0.7426617365443653),
    ("0.4", "1.0066126933128334", 0.677237179999189),
    ("0.6000000000000001", "1.0148179675496791", 0.5737597285039862),
    ("0.8", "1.0261951360993997", 0.4395793216142331),
    ("1.0", "1.0406401705756545", 0.2833111651598597),
    ("1.2000000000000002", "1.058027423579676", 0.11374518939665562),
    ("1.4000000000000001", "1.0782145661448028", -0.06101278768865948),
    ("1.6", "1.101047605426878", -0.2340775980597593),
    ("1.8", "1.1263656446087817", -0.40001495455076763),
    ("2.0", "1.1540051379707585", -0.5548406495497146),
]


def test_jsweep_pinned_columns(capsys):
    code, out, _ = run_cli(capsys, "jsweep", "--bmin", "0", "--bmax", "2",
                           "--points", "11", "--d", "0.7")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(field, b) for field, b, _ in rows] == [(f, b) for f, b, _ in JSWEEP_C13_ROWS]
    for (_, _, j), (_, _, pinned) in zip(rows, JSWEEP_C13_ROWS):
        assert abs(float(j) - pinned) <= 1e-13


def test_haar_round_trip(tmp_path, capsys):
    signal = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    infile = tmp_path / "signal.csv"
    infile.write_text("\n".join(repr(v) for v in signal) + "\n")
    coeffs = tmp_path / "coeffs.csv"
    code, _, _ = run_cli(capsys, "haar", "--in", str(infile), "--levels", "3",
                         "--out", str(coeffs))
    assert code == 0
    values = [float(line) for line in coeffs.read_text().split()]
    assert len(values) == 8
    assert values[0] == pytest.approx(sum(signal) / np.sqrt(8), rel=1e-12)

    recovered = tmp_path / "recovered.csv"
    code, _, _ = run_cli(capsys, "haar", "--in", str(coeffs), "--levels", "3",
                         "--inverse", "--out", str(recovered))
    assert code == 0
    back = [float(line) for line in recovered.read_text().split()]
    assert back == pytest.approx(signal, abs=1e-12)


def test_haar_round_trip_at_every_depth(tmp_path, capsys):
    signal = np.random.default_rng(5).standard_normal(64).tolist()
    infile, coeffs, recovered = (tmp_path / name for name in ("s.csv", "c.csv", "r.csv"))
    infile.write_text("".join(f"{v!r}\n" for v in signal))
    for levels in range(7):
        assert run_cli(capsys, "haar", "--in", str(infile), "--levels", str(levels),
                       "--out", str(coeffs))[0] == 0
        assert run_cli(capsys, "haar", "--in", str(coeffs), "--levels", str(levels),
                       "--inverse", "--out", str(recovered))[0] == 0
        back = [float(line) for line in recovered.read_text().split()]
        assert back == pytest.approx(signal, abs=1e-12)


def test_estimates_subcommand(capsys):
    code, out, _ = run_cli(capsys, "estimates")
    assert code == 0
    doc = json.loads(out)
    assert doc["a_B_nm"] == pytest.approx(19.47, abs=0.01)
    assert doc["spin_orbit_ratio"] == pytest.approx(4.38e-8, rel=1e-2)
    assert doc["dipole_meV"] == pytest.approx(1.41e-9, rel=1e-2)


@pytest.mark.parametrize("given", [{"--g": "-2"}, {"--hbar-omega0": "4"}, {"--mass-ratio": "0.1"},
                                   {"--d": "0.6", "--hbar-omega0": "4"}],
                         ids=lambda given: "-".join(f"{o}-{v}" for o, v in given.items()))
def test_estimates_replaces_the_given_values_of_the_gaas_dot(capsys, given):
    params = quantum_dot.DotParameters.gaas()._replace(
        **{option[2:].replace("-", "_"): float(value) for option, value in given.items()})
    est = quantum_dot.physical_estimates(params)
    doc = {"a_B_nm": est.a_b_nm, "spin_orbit_ratio": est.spin_orbit_ratio,
           "dipole_meV": est.dipole_mev}
    argv = [word for option_value in given.items() for word in option_value]
    assert run_cli(capsys, "estimates", *argv) == (0, cli._dumps(doc) + "\n", "")


def test_estimates_given_every_gaas_value_prints_the_bare_bytes(capsys):
    bare = run_cli(capsys, "estimates")
    given = run_cli(capsys, "estimates", "--g", "-0.44", "--hbar-omega0", "3",
                    "--mass-ratio", "0.067", "--d", "0.7")
    assert given == bare and bare[0] == 0


def _float_options(command):
    """The options of ``command`` that ``build_parser`` reads as floats."""
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [action.option_strings[0] for action in sub.choices[command]._actions
            if action.type is cli._float]


# One value for every float option of the dot subcommands; an option missing
# here fails the test below, so a new option must show what it changes.
FLOAT_OPTION_VALUES = {
    ("estimates", "--g"): "-2", ("estimates", "--hbar-omega0"): "4",
    ("estimates", "--mass-ratio"): "0.1", ("estimates", "--d"): "0.6",
    ("jsweep", "--bmin"): "0.5", ("jsweep", "--bmax"): "1", ("jsweep", "--d"): "0.6",
    ("jsweep", "--c"): "1",
}
BARE_ARGV = {"estimates": ["estimates"], "jsweep": ["jsweep", "--points", "3"]}


@pytest.mark.parametrize("command,option",
                         [(command, option) for command in BARE_ARGV
                          for option in _float_options(command)])
def test_every_float_option_changes_what_is_printed(capsys, command, option):
    assert (command, option) in FLOAT_OPTION_VALUES, f"no test value for {command} {option}"
    bare = run_cli(capsys, *BARE_ARGV[command])
    given = run_cli(capsys, *BARE_ARGV[command], option, FLOAT_OPTION_VALUES[command, option])
    assert bare[0] == given[0] == 0
    if (command, option) == ("estimates", "--d"):
        # No estimate depends on d, but the cli_cold workload of
        # perfbench/workloads.py runs `estimates --d <d> --hbar-omega0 <w>`
        # and counts a nonzero exit as a failure, so the option stays.
        assert given == bare
    else:
        assert given[1] != bare[1]


# The ten invocations of the acceptance suite's c13, one per subcommand.
C13 = [
    ["decompose", "--qubits", "4"],
    ["ladder", "--levels", "2"],
    ["transform", "--qubits", "2", "--in", "{state}", "--direction", "forward"],
    ["analyze", "--qubits", "2", "--in", "{state}"],
    ["gate", "--name", "cnot", "--basis", "multiplet"],
    ["pulse", "--j0", "1.0", "--area", "pi"],
    ["jsweep", "--bmin", "0", "--bmax", "2", "--points", "11", "--d", "0.7"],
    ["haar", "--in", "{signal}", "--levels", "3"],
    ["estimates"],
    ["constants"],
]


@pytest.mark.parametrize("argv", C13, ids=lambda argv: argv[0])
def test_handlers_return_their_output_and_main_writes_it(capsys, tmp_path, argv):
    paths = {"state": tmp_path / "state.json", "signal": tmp_path / "signal.csv"}
    paths["state"].write_text("[[0.0, 0.0], [-0.7071067811865476, 0.0], "
                              "[0.7071067811865476, 0.0], [0.0, 0.0]]")
    paths["signal"].write_text("3\n1\n4\n1\n5\n9\n2\n6\n")
    argv = [arg.format(**paths) for arg in argv]
    args = cli.build_parser().parse_args(argv)
    output = args.func(args)
    assert capsys.readouterr() == ("", "")
    want = output if isinstance(output, str) else cli._dumps(output) + "\n"
    assert run_cli(capsys, *argv) == (0, want, "")


def test_constants_subcommand(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == 0
    doc = json.loads(out)
    assert doc["hbar_mev_ns"] == 0.6582119
    assert doc["mu_b_mev_per_tesla"] == 0.0578838


def test_module_errors_exit_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "decompose", "--qubits", "0")
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, "transform", "--qubits", "3",
                           "--in", str(tmp_path / "missing.json"))
    assert code == 1


@pytest.mark.parametrize("argv,files,message", [
    (["pulse", "--j0", "1.0", "--area", "pi/0"], {}, "divides by zero"),
    (["pulse", "--j0", "1.0", "--area", "inf"], {}, "must be finite"),
    (["analyze", "--qubits", "1", "--in", "{state}"], {"state": "[1,2]"}, "[re, im]"),
    (["analyze", "--qubits", "1", "--in", "{state}"], {"state": '{"x":1}'}, '"amplitudes"'),
    (["analyze", "--qubits", "2", "--in", "{state}"],
     {"state": "[[NaN,0],[0,0],[0,0],[0,0]]"}, "norm nan"),
    (["haar", "--inverse", "--in", "{coeffs}", "--levels", "1"], {"coeffs": ""},
     "power of two, got 0"),
    (["haar", "--inverse", "--in", "{coeffs}", "--levels", "1"],
     {"coeffs": "1\n2\n3\n4\n5\n"}, "power of two, got 5"),
    (["haar", "--inverse", "--in", "{coeffs}", "--levels", "5"],
     {"coeffs": "1\n2\n3\n4\n5\n6\n7\n8\n"}, "levels must be in 0..3 for length 8"),
    (["haar", "--inverse", "--in", "{coeffs}", "--levels", "-1"],
     {"coeffs": "1\n2\n3\n4\n5\n6\n7\n8\n"}, "levels must be in 0..3 for length 8"),
    (["jsweep", "--c", "nan", "--points", "3"], {}, "c must be finite, got nan"),
    (["jsweep", "--c", "inf", "--points", "3"], {}, "c must be finite, got inf"),
    (["jsweep", "--d", "nan", "--points", "3"], {}, "d must be finite, got nan"),
    (["jsweep", "--bmax", "inf"], {}, "--bmax must be finite"),
    (["jsweep", "--bmin", "nan"], {}, "--bmin must be finite"),
    (["estimates", "--hbar-omega0", "nan"], {}, "hbar_omega0 must be finite"),
    (["haar", "--in", "{signal}", "--levels", "2"], {"signal": "1\nnan\n3\ninf\n"},
     "input values must be finite, got nan"),
    (["haar", "--inverse", "--in", "{coeffs}", "--levels", "2"],
     {"coeffs": "1\n2\n3\n-inf\n"}, "input values must be finite, got -inf"),
    (["haar", "--in", "{signal}", "--levels", "2"], {"signal": "1e308\n" * 4},
     "result overflows the float range"),
    (["jsweep", "--bmin", "2", "--bmax", "0", "--points", "3"], {},
     "--bmin 2.0 exceeds --bmax 0.0"),
    (["analyze", "--qubits", "1", "--in", "{state}"], {"state": "[" * 100_000},
     "nested too deeply"),
    (["analyze", "--qubits", "1", "--in", "{state}"], {"state": "[[1e308,0],[1e308,0]]"},
     "norm inf"),
    (["transform", "--qubits", "1", "--in", "{state}"], {"state": "[[1" + "0" * 400 + ",0],[0,0]]"},
     "[re, im]"),
    (["transform", "--qubits", "1", "--in", "{state}"], {"state": "[[Infinity,0],[0,0]]"},
     "amplitudes must be finite"),
    (["decompose", "--qubits", "4097"], {}, "register size must be in 1..4096, got 4097"),
    (["pulse", "--j0", "1e-320", "--area", "pi"], {}, "pulse duration must be finite"),
    (["pulse", "--j0", "1e308", "--area", "pi"], {}, "accumulated pulse angle must be finite"),
    (["jsweep", "--points", "0"], {}, "--points must be >= 1, got 0"),
    (["jsweep", "--points", "-1"], {}, "--points must be >= 1, got -1"),
    (["jsweep", "--points", str(2 ** 63 - 1)], {},
     f"error: --points must be at most {2 ** 60 - 1}, got {2 ** 63 - 1}\n"),
    (["jsweep", "--points", str(2 ** 63)], {},
     f"error: --points must be at most {2 ** 60 - 1}, got {2 ** 63}\n"),
    (["jsweep", "--d", "1e-160", "--points", "3"], {},
     "error: exchange coupling falls outside the float range for these parameters, got inf\n"),
    (["jsweep", "--bmax", "1.7e308"], {},
     "b * d^2 = inf at b = inf, d = 0.7: the Bessel argument must be in [0, 700.0]"),
    (["jsweep", "--d", "1e300"], {},
     "b * d^2 = inf at b = 1.0, d = 1e+300: the Bessel argument must be in [0, 700.0]"),
    (["estimates", "--g", "1e300"], {}, "scale estimates fall outside the float range"),
    (["estimates", "--mass-ratio", "1e-320"], {}, "scale estimates fall outside the float range"),
    (["estimates", "--hbar-omega0", "1e-320"], {}, "scale estimates fall outside the float range"),
    (["estimates", "--mass-ratio", "1e300"], {}, "scale estimates fall outside the float range"),
    (["estimates", "--hbar-omega0", "1e300"], {}, "scale estimates fall outside the float range"),
    (["estimates", "--hbar-omega0", "1e300", "--mass-ratio", "1e-300"], {},
     "scale estimates fall outside the float range"),
    (["analyze", "--qubits", "1", "--in", "{state}"], {"state": "[[true,false],[false,false]]"},
     "state must be a list of [re, im] number pairs"),
    (["pulse", "--j0", "nan", "--area", "pi"], {}, "j0_mev must be finite"),
    (["pulse", "--j0", "inf", "--area", "pi"], {}, "j0_mev must be finite"),
    (["transform", "--qubits", "2", "--in", "{state}"], {"state": "[[1,0],[0,0],[0,0]]"},
     "state has 3 amplitudes, tree expects 4"),
    (["analyze", "--qubits", "2", "--in", "{state}"], {"state": "[[1,0],[0,0],[0,0]]"},
     "state has 3 amplitudes, tree expects 4"),
    (["transform", "--qubits", "1", "--in", "{state}"], {"state": "[[0,0],[Infinity,0]]"},
     "error: state amplitudes must be finite, got (inf+0j)\n"),
    (["transform", "--qubits", "2", "--in", "{state}"],
     {"state": "[[0,0],[1.7e308,0],[1.7e308,0],[0,0]]"},
     "error: result overflows the float range, got (inf+0j)\n"),
    (["haar", "--in", "{signal}", "--levels", "2"], {"signal": "1e308\n" * 4},
     "error: result overflows the float range, got inf\n"),
    (["pulse", "--j0", "1.0", "--area=pi/"], {}, "error: cannot parse area 'pi/'\n"),
    (["pulse", "--j0", "1.0", "--area=.pi"], {}, "error: cannot parse area '.pi'\n"),
    (["pulse", "--j0", "1.0", "--area=pi/2/2"], {}, "error: cannot parse area 'pi/2/2'\n"),
    (["pulse", "--j0", "1.0", "--area=abc"], {}, "error: cannot parse area 'abc'\n"),
    (["pulse", "--j0", "1.0", "--area=+-pi"], {}, "error: cannot parse area '+-pi'\n"),
    (["pulse", "--j0", "1.0", "--area=2pi3"], {}, "error: cannot parse area '2pi3'\n"),
    (["pulse", "--j0", "1.0", "--area=1_0pi"], {}, "error: cannot parse area '1_0pi'\n"),
    (["pulse", "--j0", "1.0", "--area=pi/1_0"], {}, "error: cannot parse area 'pi/1_0'\n"),
    (["pulse", "--j0", "1.0", "--area=\u0662pi"], {}, "error: cannot parse area '\u0662pi'\n"),
    (["pulse", "--j0", "1.0", "--area=1_0"], {}, "error: cannot parse area '1_0'\n"),
    (["pulse", "--j0", "1.0", "--area=pi/1e-400"], {},
     "error: area 'pi/1e-400' has a divisor that underflows to 0.0\n"),
    (["pulse", "--j0", "1.0", "--area=pi/-0"], {}, "error: area 'pi/-0' divides by zero\n"),
    (["pulse", "--j0", "1", "--area=1e-400pi"], {},
     "error: area '1e-400pi' underflows to 0.0\n"),
    (["pulse", "--j0", "1", "--area=pi/1e400"], {}, "error: area 'pi/1e400' underflows to 0.0\n"),
    (["pulse", "--j0", "1", "--area=pi/inf"], {}, "error: area 'pi/inf' underflows to 0.0\n"),
    (["pulse", "--j0", "1", "--area=1e-400"], {}, "error: area '1e-400' underflows to 0.0\n"),
    (["pulse", "--j0=-1", "--area=-1e-400"], {}, "error: area '-1e-400' underflows to 0.0\n"),
    (["haar", "--in", "{signal}", "--levels", "1"], {"signal": "1_0\n2\n"},
     "error: cannot parse value '1_0'\n"),
    (["haar", "--in", "{signal}", "--levels", "1"], {"signal": "\u0662\n2\n"},
     "error: cannot parse value '\u0662'\n"),
    (["haar", "--in", "{signal}", "--levels", "1"], {"signal": "x\n2\n"},
     "error: cannot parse value 'x'\n"),
    (["analyze", "--qubits", "1", "--in", "{state}"], {"state": "[[1,0]"},
     "error: state is not valid JSON: Expecting ',' delimiter: line 1 column 7 (char 6)\n"),
    (["analyze", "--qubits", "1", "--in", "{state}"], {"state": "\udcff"},
     "/state' is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte\n"),
], ids=["area-pi/0", "area-inf", "bare-numbers", "missing-key", "nan-state",
        "haar-inverse-empty", "haar-inverse-odd", "haar-inverse-deep", "haar-inverse-negative",
        "jsweep-c-nan", "jsweep-c-inf", "jsweep-d-nan", "jsweep-bmax-inf", "jsweep-bmin-nan",
        "estimates-nan", "haar-nan", "haar-inverse-inf", "haar-overflow", "jsweep-bmin-above-bmax",
        "deep-json", "analyze-overflow", "huge-int", "transform-inf", "decompose-4097",
        "pulse-duration-inf", "pulse-angle-overflow", "jsweep-points-0",
        "jsweep-points-negative", "jsweep-points-2^63-1", "jsweep-points-2^63",
        "jsweep-d-underflow",
        "jsweep-bmax-overflow", "jsweep-d-overflow", "estimates-g-overflow",
        "estimates-mass-underflow", "estimates-omega-underflow", "estimates-mass-overflow",
        "estimates-omega-overflow", "estimates-ratio-overflow", "bool-amplitudes",
        "pulse-j0-nan", "pulse-j0-inf", "transform-size", "analyze-size",
        "transform-inf-named", "transform-output-overflow", "haar-overflow-named",
        "area-pi-slash", "area-dot-pi", "area-two-slashes", "area-word", "area-two-signs",
        "area-digits-after-pi", "area-underscore-pi", "area-underscore-divisor",
        "area-arabic-indic-digit", "area-underscore", "area-divisor-underflow", "area-pi/-0",
        "area-pi-underflow", "area-divisor-overflow", "area-divisor-inf",
        "area-plain-underflow", "area-negative-underflow",
        "haar-underscore", "haar-arabic-indic-digit", "haar-word", "analyze-truncated-json",
        "analyze-not-utf8"])
def test_bad_inputs_exit_one_with_one_error_line(capsys, tmp_path, argv, files, message):
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        # a lone surrogate stands for the undecodable byte it escapes
        paths[name].write_bytes(text.encode("utf-8", "surrogateescape"))
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    # a message given as a whole line is the whole of stderr
    assert err == message if message.startswith("error: ") else message in err


@pytest.mark.parametrize("error,message", [
    (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) "
                 "and data type int64"),
     "error: out of memory: Unable to allocate 745. GiB"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy-message", "bare"])
def test_memory_error_exits_one_with_one_error_line(capsys, monkeypatch, error, message):
    def exhausted(profile, steps):
        raise error

    monkeypatch.setattr(dynamics, "evolve_pulse", exhausted)
    code, out, err = run_cli(capsys, "pulse", "--j0", "0.5", "--area", "pi")
    assert code == 1
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_jsweep_at_a_huge_coulomb_parameter(capsys):
    # c * sqrt(b) alone overflows; the scaled braces bring J back into range
    code, out, _ = run_cli(capsys, "jsweep", "--c", "1.7e308", "--points", "3")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [field for field, _, _ in rows] == ["0.0", "1.0", "2.0"]
    # J at B = 2 T agrees with a 50-digit evaluation of the closed form
    assert rows[-1][2] == "-1.5388268878141617e+308"


def test_jsweep_single_field(capsys):
    code, out, _ = run_cli(capsys, "jsweep", "--bmin", "1", "--bmax", "1", "--points", "3")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [field for field, _, _ in rows] == ["1.0"] * 3
    assert len({j for _, _, j in rows}) == 1


def test_transform_is_linear_and_analyze_needs_unit_norm(tmp_path, capsys):
    """transform accepts any finite vector; analyze only unit-norm states."""
    unit, double = tmp_path / "unit.json", tmp_path / "double.json"
    unit.write_text("[[1,0],[0,0],[0,0],[0,0]]")
    double.write_text("[[2,0],[0,0],[0,0],[0,0]]")
    code, out, _ = run_cli(capsys, "transform", "--qubits", "2", "--in", str(unit))
    assert code == 0
    unit_doc = json.loads(out)
    code, out, _ = run_cli(capsys, "transform", "--qubits", "2", "--in", str(double))
    assert code == 0
    double_doc = json.loads(out)
    assert double_doc["amplitudes"] == [[2 * re, 2 * im] for re, im in unit_doc["amplitudes"]]
    assert double_doc["amplitudes"] != unit_doc["amplitudes"]
    code, out, err = run_cli(capsys, "analyze", "--qubits", "2", "--in", str(double))
    assert code == 1 and out == ""
    assert err == "error: state norm 2.0 deviates from 1 by more than 1e-06\n"


@pytest.mark.parametrize("argv,message", [
    (["decompose", "--qubits", "\u0661\u0666"],
     "argument --qubits: invalid int value: '\u0661\u0666'"),
    (["decompose", "--qubits", "1_6"], "argument --qubits: invalid int value: '1_6'"),
    (["jsweep", "--points", "2", "--bmax", "1_0"], "argument --bmax: invalid float value: '1_0'"),
    (["ladder", "--levels", "\u0662"], "argument --levels: invalid int value: '\u0662'"),
], ids=["decompose-arabic-indic-digits", "decompose-underscore", "jsweep-underscore",
        "ladder-arabic-indic-digit"])
def test_numbers_with_underscores_or_non_ascii_digits_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f": error: {message}\n")


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["ladder", "--levels", "2", "--bogus"])
    assert info.value.code == 2
    for argv in (["pulse", "--j0", "1", "--area=--"], ["jsweep", "--bmin=--"],
                 ["pulse", "--j0", "1", "--area", "pi", "--steps", "4"],
                 ["estimates", "--epsilon", "20"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "\nspinhier: error: unrecognized arguments: --epsilon 20\n")
    # argparse reads "-pi", and before Python 3.12 "-1e-3", after a space as an option name
    refused = {"--area": ["pulse", "--j0", "-1", "--area", "-pi"]}
    if sys.version_info < (3, 12):
        refused["--j0"] = ["pulse", "--j0", "-1e-3", "--area=-pi"]
    for option, argv in refused.items():
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"spinhier pulse: error: argument {option}: expected one argument\n")


def test_every_subcommand_has_help(capsys):
    for name in ("decompose", "ladder", "transform", "analyze", "gate",
                 "pulse", "jsweep", "haar", "estimates", "constants"):
        with pytest.raises(SystemExit) as info:
            cli.main([name, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out
