import time

import pytest

from hamline import verify


@pytest.fixture(scope="session")
def soundness_run():
    """One in-process run of the default soundness probe, shared by the
    verify and acceptance tests: (report, seconds)."""
    t0 = time.perf_counter()
    rep = verify.soundness_probe()
    return rep, time.perf_counter() - t0
