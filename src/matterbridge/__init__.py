"""Desk-scale crystal-structure / language alignment toolkit.

The package trains a small query-transformer bridge between a frozen
graph encoder over periodic crystal structures and a character-level
language model (frozen unless ``lm_trainable`` is set; the overfit
release gate sets it, see ``trainer``), entirely on CPU with
reproducible float64 numerics.  It also ships structural similarity
tools (SOAP descriptors with a regularized-entropy match kernel) and a
retrieval-augmented inference path over stored bridge embeddings.

Importing the package pins OpenBLAS, OpenMP and MKL to one thread
unless the environment sets them; the pin only takes effect when
matterbridge is imported before numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .tensor import Tensor

__version__ = "0.1.0"

__all__ = ["Tensor", "__version__"]
