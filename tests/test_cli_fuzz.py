"""Fuzz of the CLI parsers: every area string, amplitude JSON text, CSV text
and numeric option ends in exit 0, exit 1 with one ``error:`` line, or an
argparse usage error (exit 2), and never in another exception."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spinhier import cli

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# Text that can be written as UTF-8 (no lone surrogates).
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10 ** 400, 10 ** 400),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 0.5]),
)


def _run(capsys, argv) -> str:
    """The stderr of one call, checked for its shape: "" on exit 0 or an
    argparse usage error, one ``error:`` line on exit 1."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage error
        assert exc.code == 2
        capsys.readouterr()
        return ""
    out, err = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == ""
    return err


AREA_PIECES = st.sampled_from(["pi", "PI", "/", "*", " ", "-", "+", ".", "e", "0", "1",
                               "2", "9", "1e308", "1e-320", "inf", "nan", "x"])
AREAS = st.one_of(TEXT, st.lists(AREA_PIECES, max_size=8).map("".join))

# The refusals of `pulse --j0 1.0 --area=...` that quote no part of the area.
PULSE_REFUSALS = tuple(f"error: {start}" for start in (
    "area must be finite, ", "degenerate pulse: ", "pulse duration must be finite, ",
    "accumulated pulse angle must be finite, "))


@FUZZ
@given(area=AREAS)
@example(area="--")
@example(area="pi/")
@example(area="-pi/0")
def test_area_strings(capsys, area):
    err = _run(capsys, ["pulse", "--j0", "1.0", f"--area={area}"])
    quoting = (f"error: cannot parse area {area!r}\n", f"error: area {area!r} divides by zero\n",
               f"error: area {area!r} has a divisor that underflows to 0.0\n",
               f"error: area {area!r} underflows to 0.0\n")
    assert err in ("", *quoting) or err.startswith(PULSE_REFUSALS), err


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, TEXT),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.dictionaries(st.sampled_from(["amplitudes", "x"]), children,
                                               max_size=2)),
    max_leaves=12,
)
PAIRS = st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=5)
AMPLITUDE_TEXT = st.one_of(
    TEXT,
    JSON_VALUES.map(json.dumps),
    PAIRS.map(json.dumps),
    PAIRS.map(lambda pairs: json.dumps({"amplitudes": pairs})),
)


@FUZZ
@given(text=AMPLITUDE_TEXT, command=st.sampled_from(["transform", "analyze"]),
       qubits=st.sampled_from(["1", "2"]), inverse=st.booleans())
def test_amplitude_json(capsys, tmp_path, text, command, qubits, inverse):
    state = tmp_path / "state.json"
    state.write_text(text, encoding="utf-8")
    argv = [command, "--qubits", qubits, "--in", str(state)]
    if command == "transform" and inverse:
        argv += ["--direction", "inverse"]
    _run(capsys, argv)


CSV_TEXT = st.one_of(
    TEXT,
    st.lists(NUMBERS, max_size=16).map(lambda xs: "\n".join(repr(x) for x in xs) + "\n"),
)


@FUZZ
@given(text=CSV_TEXT, levels=st.integers(-2, 5), inverse=st.booleans())
def test_csv_signals(capsys, tmp_path, text, levels, inverse):
    signal = tmp_path / "signal.csv"
    signal.write_text(text, encoding="utf-8")
    argv = ["haar", "--in", str(signal), f"--levels={levels}"]
    if inverse:
        argv.append("--inverse")
    _run(capsys, argv)


# The extremes that overflow or underflow the physics: a_B^3, J and its sinh.
EXTREME_FLOATS = st.sampled_from([1e-320, 1e-160, 1e300, 1.7e308, float("nan"), float("inf")])
OPTION_VALUES = st.one_of(NUMBERS, EXTREME_FLOATS, EXTREME_FLOATS.map(lambda x: -x))
FLOAT_OPTIONS = {
    "estimates": ("--g", "--hbar-omega0", "--mass-ratio", "--d"),
    "jsweep": ("--bmin", "--bmax", "--d", "--c"),
}


@pytest.mark.parametrize("command", sorted(FLOAT_OPTIONS))
@FUZZ
@given(data=st.data())
def test_float_options(capsys, command, data):
    options = data.draw(st.dictionaries(st.sampled_from(FLOAT_OPTIONS[command]), OPTION_VALUES))
    argv = [command, *(f"{name}={value!r}" for name, value in options.items())]
    if command == "jsweep":
        argv.append("--points=3")
    _run(capsys, argv)


# Small counts, and counts of 2^62 or more, which are refused before anything
# is allocated; the counts in between would allocate, so none is drawn.
INTEGER_VALUES = st.one_of(st.integers(-10, 50), st.integers(min_value=2 ** 62))
INTEGER_OPTIONS = [("jsweep", "--points"), ("ladder", "--levels"), ("decompose", "--qubits")]


@pytest.mark.parametrize("command,option", INTEGER_OPTIONS, ids=[c for c, _ in INTEGER_OPTIONS])
@FUZZ
@given(value=INTEGER_VALUES)
@example(value=2 ** 63 - 1)
@example(value=2 ** 63)
def test_integer_options(capsys, command, option, value):
    _run(capsys, [command, f"{option}={value}"])
