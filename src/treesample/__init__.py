"""Parent distributions from randomized graph algorithms, and samplers that
extract multiple candidate solutions from them; `evaluation` holds the studies.

Each module's `__all__` declares its public names; the package re-exports
them all, so its `__all__` is the union of those lists.
"""

import os

# No module here calls BLAS, but numpy's OpenBLAS starts a worker thread per
# extra core when numpy is imported. One thread, unless the caller chose a
# count or imported numpy first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import algorithms, distributions, evaluation, graphs, samplers, validity
from .algorithms import *
from .distributions import *
from .evaluation import *
from .graphs import *
from .samplers import *
from .validity import *

_MODULES = (algorithms, distributions, evaluation, graphs, samplers, validity)
__all__ = [name for module in _MODULES for name in module.__all__]
