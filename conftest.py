"""Pin BLAS to one thread before any test module imports numpy.

Tier-1 timings (criteria 05 and 07 above all) degrade badly when a
multi-threaded BLAS shares a small machine with another BLAS process, and
``bench/run.py`` pins one thread for the same reason. ``setdefault`` keeps
an explicit setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
