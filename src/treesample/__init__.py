"""Parent distributions from randomized graph algorithms, and samplers that
extract multiple candidate solutions from them; `evaluation` holds the studies.

Each module's `__all__` declares its public names; the package's `__all__` is
their union, loaded with the six modules at first access (PEP 562).
"""

import importlib.util
import os

# No module here calls BLAS, but numpy's OpenBLAS starts a worker thread per
# extra core when numpy is imported. One thread, unless the caller chose a
# count or imported numpy first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

_MODULES = ("algorithms", "distributions", "evaluation", "graphs", "samplers", "validity")


def __getattr__(name: str):
    if not name.startswith("__") and importlib.util.find_spec(f"{__name__}.{name}"):
        return importlib.import_module(f"{__name__}.{name}")  # a submodule loads alone
    if name == "__all__" or not name.startswith("__"):  # a probe for a dunder loads nothing
        modules = [importlib.import_module(f"{__name__}.{module}") for module in _MODULES]
        exports = {export: getattr(module, export) for module in modules for export in module.__all__}
        globals().update(exports, __all__=list(exports))
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
