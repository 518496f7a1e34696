"""Desk-scale extractive question answering toolkit.

Imported before numpy, the package runs BLAS on one thread, since the
thread count can change bytes: it sets each of ``BLAS_THREAD_VARS`` that
the caller left unset to "1".
"""

import os
import sys

__version__ = "0.1.0"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
if "numpy" not in sys.modules:  # BLAS reads them when numpy loads
    os.environ.update({v: "1" for v in BLAS_THREAD_VARS
                       if v not in os.environ})

from .autograd import Rng, Tensor  # noqa: E402, F401
from .data import Feature, PreprocessConfig, RawExample  # noqa: E402, F401
