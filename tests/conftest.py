"""Shared test settings.

The package's linear algebra is on matrices of a few dozen rows, where a
multi-threaded BLAS only adds synchronisation, and on a loaded host its
spinning threads slow the wall-clock gates of the acceptance tests by
several times.  One thread per BLAS, set here before numpy is first
imported, keeps those gates measuring the code under test.  The demo
subprocesses inherit the setting; a value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
