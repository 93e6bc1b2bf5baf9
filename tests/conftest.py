"""Test-session set-up.

beamsim's linear algebra is on matrices of a few dozen entries, where BLAS
and OpenMP worker threads cost more than they save, so the test session
pins them to one thread unless the environment already sets them. This has
to run before numpy is first imported.

Every test starts with an empty draw memo, so what a test counts does not
depend on the channel the test before it left there.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pytest  # noqa: E402

import support  # noqa: E402


@pytest.fixture(autouse=True)
def _cold_draw_memo():
    support.forget_draw()
