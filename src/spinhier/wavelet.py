"""Classical Haar pyramid: the reference scheme the spin hierarchy mirrors.

One-dimensional orthonormal decomposition of dyadic-length signals.  The
low-pass output at each level is (s_{2k} + s_{2k+1}) / sqrt(2), the high-pass
output the matching difference; iterating halves the resolution per level
while conserving coefficient count and energy.  Each level is two strided
slices of the whole array.
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


def _butterfly(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s x + s y, s x - s y) with s = 1/sqrt(2), elementwise.

    Bit for bit what a two-tap filter bank gives when it sums the tap
    products into zeros: products before sums, and the + 0.0 turns a -0.0
    into 0.0 as that zero start does.
    """
    sx = _S * x + 0.0
    sy = _S * y
    return sx + sy, sx - sy


def haar_step(signal) -> tuple[np.ndarray, np.ndarray]:
    """One Haar split: pairwise sums and differences over sqrt(2).

    Energy is conserved: |s|^2 = |s'|^2 + |d'|^2.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1 or len(signal) < 2 or len(signal) % 2 != 0:
        raise ValueError(f"signal length must be even and >= 2, got shape {signal.shape}")
    return _butterfly(signal[0::2], signal[1::2])


def pyramid_forward(signal, levels: int) -> PyramidDecomposition:
    """Iterated Haar analysis down to the requested level."""
    signal = np.asarray(signal, dtype=float)
    n = len(signal)
    if n < 1 or n & (n - 1) != 0:
        raise ValueError(f"signal length must be a power of two, got {n}")
    max_levels = n.bit_length() - 1
    if not 0 <= levels <= max_levels:
        raise ValueError(f"levels must be in 0..{max_levels} for length {n}")
    approx = signal
    details = []
    for _ in range(levels):
        approx, high = haar_step(approx)
        details.append(high)
    return PyramidDecomposition(approximation=approx, details=tuple(details))


def pyramid_inverse(decomposition: PyramidDecomposition) -> np.ndarray:
    """Exact reconstruction from a Haar pyramid decomposition."""
    approx = np.asarray(decomposition.approximation, dtype=float)
    for high in reversed(decomposition.details):
        high = np.asarray(high, dtype=float)
        if len(high) != len(approx):
            raise ValueError(
                f"detail length {len(high)} does not match approximation {len(approx)}"
            )
        signal = np.empty(2 * len(approx))
        signal[0::2], signal[1::2] = _butterfly(approx, high)
        approx = signal
    return approx
