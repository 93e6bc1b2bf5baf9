"""Test-session set-up.

beamsim's linear algebra is on matrices of a few dozen entries, where BLAS
and OpenMP worker threads cost more than they save, so the test session
pins them to one thread unless the environment already sets them. This has
to run before numpy is first imported.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
