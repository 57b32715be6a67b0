"""heatkato: desk-scale numerical checks for heat kernels, Kato-class
potentials, Feynman-Kac functionals and Schrodinger semigroup bounds on model
Riemannian manifolds.

Importing the package loads no submodule: ``heatkato.kato`` and the other
submodule attributes load on first access.  ``heatkato.cli`` reaches every
numerical layer this way, as ``heatkato.<layer>.<name>``, so a command pays
only for the layers it uses; no layer imports scipy at load.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "errors", "geometry", "heat_kernel", "kato", "mvi", "potentials", "quadrature",
               "reporting", "semigroup", "stochastics")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
