"""Command-line surface: fixtures, round-trips, and error paths."""

import json

import numpy as np
import pytest

from spinhier import cli
from spinhier.angular_momentum import SpinLabel, couple_pair_matrix
from spinhier.gates import gate_fidelity, swap_gate, to_multiplet, cnot_product


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_gate_multiplet_matches_similarity_transform(capsys):
    code, out, _ = run_cli(capsys, "gate", "--name", "cnot", "--basis", "multiplet")
    assert code == 0
    got = cli.parse_matrix(out)
    pair = couple_pair_matrix(SpinLabel(1), SpinLabel(1))
    assert np.max(np.abs(got - to_multiplet(cnot_product(), pair))) < 1e-12
    sq2 = 1 / np.sqrt(2)
    assert got[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert got[0, 3] == pytest.approx(sq2, abs=1e-12)
    assert got[3, 3] == pytest.approx(0.0, abs=1e-12)


def test_serialize_matrix_round_trip():
    assert cli.serialize_matrix(np.eye(2)) == "[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[1.0,0.0]]]"
    pair = couple_pair_matrix(SpinLabel(1), SpinLabel(1))
    assert np.array_equal(cli.parse_matrix(cli.serialize_matrix(pair)), pair)
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(cli.parse_matrix(cli.serialize_matrix(matrix)), matrix)


def test_serialize_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        cli.serialize_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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


def test_analyze_subcommand(tmp_path, capsys):
    singlet = [[0.0, 0.0], [-1 / np.sqrt(2), 0.0], [1 / np.sqrt(2), 0.0], [0.0, 0.0]]
    infile = tmp_path / "singlet.json"
    infile.write_text(json.dumps(singlet))
    code, out, _ = run_cli(capsys, "analyze", "--qubits", "2", "--in", str(infile))
    assert code == 0
    doc = json.loads(out)
    assert doc["W"][0] == pytest.approx(1.0, abs=1e-12)
    assert doc["VM"] == pytest.approx(0.0, abs=1e-12)


def test_pulse_subcommand(capsys):
    code, out, _ = run_cli(capsys, "pulse", "--j0", "1.0", "--area", "pi",
                           "--steps", "64")
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity_vs_swap"] == pytest.approx(1.0, abs=1e-10)
    unitary = np.array([[complex(re, im) for re, im in row] for row in doc["unitary"]])
    assert gate_fidelity(unitary, swap_gate()) == pytest.approx(1.0, abs=1e-10)
    assert doc["area"] == pytest.approx(np.pi, rel=1e-15)


def test_pulse_area_spellings(capsys):
    for spelling, value in [("pi/2", np.pi / 2), ("2pi", 2 * np.pi),
                            ("2*pi", 2 * np.pi), ("1.5", 1.5)]:
        code, out, _ = run_cli(capsys, "pulse", "--j0", "1.0", "--area", spelling,
                               "--steps", "4")
        assert code == 0
        assert json.loads(out)["area"] == pytest.approx(value, rel=1e-15)


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


def test_estimates_subcommand(capsys):
    code, out, _ = run_cli(capsys, "estimates")
    assert code == 0
    doc = json.loads(out)
    assert doc["a_B_nm"] == pytest.approx(19.47, abs=0.01)
    assert doc["spin_orbit_ratio"] == pytest.approx(4.38e-8, rel=1e-2)
    assert doc["dipole_meV"] == pytest.approx(1.41e-9, rel=1e-2)


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
    (["decompose", "--qubits", "17"], {}, "register size must be in 1..16, got 17"),
], ids=["area-pi/0", "area-inf", "bare-numbers", "missing-key", "nan-state",
        "haar-inverse-empty", "haar-inverse-odd", "haar-inverse-deep", "haar-inverse-negative",
        "jsweep-c-nan", "jsweep-c-inf", "jsweep-d-nan", "jsweep-bmax-inf", "jsweep-bmin-nan",
        "estimates-nan", "haar-nan", "haar-inverse-inf", "haar-overflow", "jsweep-bmin-above-bmax",
        "deep-json", "analyze-overflow", "huge-int", "transform-inf", "decompose-17"])
def test_bad_inputs_exit_one_with_one_error_line(capsys, tmp_path, argv, files, message):
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


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
    assert err.startswith("error: state norm 2.0")


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["ladder", "--levels", "2", "--bogus"])
    assert info.value.code == 2
    for argv in (["pulse", "--j0", "1", "--area=--"], ["jsweep", "--bmin=--"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2


def test_every_subcommand_has_help(capsys):
    for name in ("decompose", "ladder", "transform", "analyze", "gate",
                 "pulse", "jsweep", "haar", "estimates", "constants"):
        with pytest.raises(SystemExit) as info:
            cli.main([name, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out
