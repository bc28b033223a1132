"""Hierarchic multiplet encoding of spin-1/2 registers.

Modules, each imported on first use (``spinhier.hierarchy`` and
``from spinhier import hierarchy`` both work), so that importing the package
loads nothing else:

- ``register``: spin labels, register content, coupling trees, ladder
  dimensions; exact integer arithmetic, no numpy
- ``angular_momentum``: Clebsch-Gordan coefficients and pair coupling matrices
- ``hierarchy``: the hierarchic unitary, ladder profiles and projectors
- ``gates``: two-qubit gate constants, multiplet-basis conversion, exchange XOR
- ``dynamics``: Heisenberg/Zeeman Hamiltonians and exchange-pulse evolution
- ``quantum_dot``: the GaAs double-dot parameter record, its physical scale
  estimates and exchange coupling; numpy is loaded by its array functions only
- ``wavelet``: classical Haar pyramid baseline
- ``constants``: the pinned physical constants
- ``cli``: batch command line emitting JSON/CSV
"""

from importlib import import_module

__all__ = [
    "angular_momentum",
    "constants",
    "dynamics",
    "gates",
    "hierarchy",
    "quantum_dot",
    "register",
    "wavelet",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
