"""Classical Haar pyramid: the reference scheme the spin hierarchy mirrors.

One-dimensional orthonormal decomposition of dyadic-length signals.  The
low-pass output at each level is (s_{2k} + s_{2k+1}) / sqrt(2), the high-pass
output the matching difference; iterating halves the resolution per level
while conserving coefficient count and energy.  Each level is two strided
slices of the whole array, combined with ufuncs that write straight into the
level's output arrays, so a level allocates only what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

_S = 1.0 / sqrt(2.0)


@dataclass(frozen=True)
class PyramidDecomposition:
    """Approximation at the coarsest level plus details per level.

    ``details[0]`` is the finest detail band (length n/2), ``details[-1]``
    the coarsest (same length as ``approximation``).  Total coefficient count
    equals the input length.
    """

    approximation: np.ndarray
    details: tuple[np.ndarray, ...]

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


def _split(signal: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Haar split of an even-length signal into two new arrays; ``scratch``
    holds at least half the signal length and is overwritten."""
    half = len(signal) // 2
    low, high = np.empty(half), np.empty(half)
    _butterfly(signal[0::2], signal[1::2], low, high, scratch[:half])
    return low, high


def haar_step(signal) -> tuple[np.ndarray, np.ndarray]:
    """One Haar split: pairwise sums and differences over sqrt(2).

    Energy is conserved: |s|^2 = |s'|^2 + |d'|^2.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1 or len(signal) < 2 or len(signal) % 2 != 0:
        raise ValueError(f"signal length must be even and >= 2, got shape {signal.shape}")
    return _split(signal, np.empty(len(signal) // 2))


def pyramid_forward(signal, levels: int) -> PyramidDecomposition:
    """Iterated Haar analysis down to the requested level.

    Every returned band is a new array; the input is never written to.
    """
    signal = np.asarray(signal, dtype=float)
    n = len(signal)
    if n < 1 or n & (n - 1) != 0:
        raise ValueError(f"signal length must be a power of two, got {n}")
    max_levels = n.bit_length() - 1
    if not 0 <= levels <= max_levels:
        raise ValueError(f"levels must be in 0..{max_levels} for length {n}")
    if levels == 0:
        return PyramidDecomposition(approximation=signal.copy(), details=())
    scratch = np.empty(n // 2)
    approx = signal
    details = []
    for _ in range(levels):
        approx, high = _split(approx, scratch)
        details.append(high)
    return PyramidDecomposition(approximation=approx, details=tuple(details))


def pyramid_inverse(decomposition: PyramidDecomposition) -> np.ndarray:
    """Exact reconstruction from a Haar pyramid decomposition.

    Returns a new array; the decomposition is never written to.
    """
    approx = np.asarray(decomposition.approximation, dtype=float)
    bands = [np.asarray(high, dtype=float) for high in reversed(decomposition.details)]
    size = len(approx)
    for high in bands:
        if len(high) != size:
            raise ValueError(f"detail length {len(high)} does not match approximation {size}")
        size *= 2
    if not bands:
        return approx.copy()
    scratch = np.empty(size // 2)
    for high in bands:
        half = len(approx)
        signal = np.empty(2 * half)
        _butterfly(approx, high, signal[0::2], signal[1::2], scratch[:half])
        approx = signal
    return approx
