"""Classical Haar pyramid: the reference scheme the spin hierarchy mirrors.

One-dimensional orthonormal decomposition of dyadic-length signals.  The
low-pass output at each level is (s_{2k} + s_{2k+1}) / sqrt(2), the high-pass
output the matching difference; iterating halves the resolution per level
while conserving coefficient count and energy.  Each level is two strided
slices of the whole array, combined with ufuncs that write straight into
buffers the call allocates once: the levels of a call take turns in them, so
no level allocates an array of its own.  A result that an overflow leaves
with inf or nan, like one from an input that is not finite, is refused by
``register._finite``: ValueError, ``result overflows the float range, got inf``.
"""

from __future__ import annotations

from collections import namedtuple
from math import sqrt

import numpy as np

from .register import _as_integer, _as_real, _finite

_S = 1.0 / sqrt(2.0)


class PyramidDecomposition(namedtuple("PyramidDecomposition", "approximation details")):
    """Approximation at the coarsest level (an array) plus details per level
    (a tuple of arrays).

    ``details[0]`` is the finest detail band (length n/2), ``details[-1]``
    the coarsest (same length as ``approximation``).  Total coefficient count
    equals the input length.
    """

    __slots__ = ()

    @property
    def levels(self) -> int:
        return len(self.details)

    def coefficient_count(self) -> int:
        return len(self.approximation) + sum(len(d) for d in self.details)


def _butterfly(x: np.ndarray, y: np.ndarray, low: np.ndarray, high: np.ndarray,
               scratch: np.ndarray) -> None:
    """Write s x + s y into ``low`` and s x - s y into ``high``, s = 1/sqrt(2).

    Bit for bit what a two-tap filter bank gives when it sums the tap
    products into zeros: products before sums, and the + 0.0 turns a -0.0
    into 0.0 as that zero start does.  ``scratch`` holds s y; none of the
    three outputs may overlap ``x``, ``y`` or each other.
    """
    np.multiply(x, _S, out=low)
    low += 0.0
    np.multiply(y, _S, out=scratch)
    np.subtract(low, scratch, out=high)
    low += scratch


def haar_step(signal) -> tuple[np.ndarray, np.ndarray]:
    """One Haar split: pairwise sums and differences over sqrt(2).

    Energy is conserved: |s|^2 = |s'|^2 + |d'|^2.
    """
    signal = _as_real(signal, "signal", one_dimensional=True)
    if len(signal) < 2 or len(signal) % 2 != 0:
        raise ValueError(f"signal length must be even and >= 2, got shape {signal.shape}")
    half = len(signal) // 2
    low, high = np.empty(half), np.empty(half)
    with np.errstate(over="ignore", invalid="ignore"):
        _butterfly(signal[0::2], signal[1::2], low, high, np.empty(half))
    return _finite(low), _finite(high)


def _check_levels(n: int, levels) -> int:
    """``levels`` as an int, checked against a signal of length ``n``: the
    length must be a power of two and the depth at most its log2."""
    if n < 1 or n & (n - 1) != 0:
        raise ValueError(f"signal length must be a power of two, got {n}")
    max_levels = n.bit_length() - 1
    return _as_integer("levels", levels, range(max_levels + 1),
                       f"levels must be in 0..{max_levels} for length {n}")


def pyramid_forward(signal, levels: int) -> PyramidDecomposition:
    """Iterated Haar analysis down to the requested level.

    No two returned bands share memory, and none shares it with the input,
    which is never written to.  The bands are cut from one array of the
    signal's length in the order the CLI prints them: the coarsest
    approximation, then the details, coarsest first.  The intermediate
    approximations take turns in the two parts of another.
    """
    signal = _as_real(signal, "signal", one_dimensional=True)
    n = len(signal)
    levels = _check_levels(n, levels)
    if levels == 0:
        return PyramidDecomposition(approximation=_finite(signal.copy()), details=())
    scratch = np.empty(n // 2)
    coefficients = np.empty(n)
    pair = np.empty(n // 2 + n // 4)
    turns = (pair[:n // 2], pair[n // 2:])
    approx, details = signal, []
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(levels):
            half = len(approx) // 2
            low = coefficients[:half] if level == levels - 1 else turns[level % 2][:half]
            high = coefficients[half:2 * half]
            _butterfly(approx[0::2], approx[1::2], low, high, scratch[:half])
            approx = low
            details.append(high)
    _finite(coefficients)
    return PyramidDecomposition(approximation=approx, details=tuple(details))


def pyramid_inverse(decomposition: PyramidDecomposition) -> np.ndarray:
    """Exact reconstruction from a Haar pyramid decomposition.

    Returns a new array; the decomposition is never written to.  The levels
    write by turns into the output and one spare array of half its length.
    A decomposition that no :func:`pyramid_forward` call gives, one whose
    total length is not a power of two, raises ValueError as that call would.
    """
    approx, *bands = [_as_real(band, "bands", one_dimensional=True) for band in
                      (decomposition.approximation, *reversed(decomposition.details))]
    size = len(approx)
    for high in bands:
        if len(high) != size:
            raise ValueError(f"detail length {len(high)} does not match approximation {size}")
        size *= 2
    _check_levels(size, len(bands))
    if not bands:
        return _finite(approx.copy())
    scratch = np.empty(size // 2)
    out, spare = np.empty(size), np.empty(size // 2)
    # an odd number of levels starts in the output, so the last one ends there
    target, other = (out, spare) if len(bands) % 2 else (spare, out)
    with np.errstate(over="ignore", invalid="ignore"):
        for high in bands:
            half = len(approx)
            signal = target[:2 * half]
            _butterfly(approx, high, signal[0::2], signal[1::2], scratch[:half])
            approx, target, other = signal, other, target
    return _finite(out)
