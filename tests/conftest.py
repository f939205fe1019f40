"""Shared fixtures: simulated systems of every machine preset, and one
quick reproduction of every paper experiment.

Also installs a SIGALRM-based per-test wall-clock timeout: a wedged test
(a worker process that never exits, a sim loop that stopped
progressing) aborts with a traceback instead of hanging CI.  The stdlib
mechanism is used because ``pytest-timeout`` is not part of the baked
test environment.  Override per test with ``@pytest.mark.timeout(N)``;
``0`` disables.
"""

from __future__ import annotations

import signal

import pytest

from repro.hw.machines import (
    dynamiq_three_tier,
    homogeneous_xeon,
    orangepi_800,
    raptor_lake_i7_13700,
)
from repro.system import System
from repro.tools.reproduce import Results, run_experiments

#: Generous default: the slowest tier-1 tests (multi-attempt supervisor
#: sweeps with real forked workers) finish well under a minute.
DEFAULT_TEST_TIMEOUT_S = 120


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test wall-clock limit (0 disables; "
        f"default {DEFAULT_TEST_TIMEOUT_S}s via SIGALRM)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    seconds = int(marker.args[0]) if marker and marker.args else DEFAULT_TEST_TIMEOUT_S
    if seconds <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {seconds}s wall-clock limit "
            "(see tests/conftest.py; raise with @pytest.mark.timeout)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def raptor() -> System:
    """Raptor Lake with a fine tick for short workloads."""
    return System("raptor-lake-i7-13700", dt_s=1e-4)


@pytest.fixture
def raptor_coarse() -> System:
    """Raptor Lake with the default experiment tick."""
    return System("raptor-lake-i7-13700", dt_s=0.02)


@pytest.fixture
def orangepi() -> System:
    return System("orangepi-800", dt_s=1e-4)


@pytest.fixture
def orangepi_coarse() -> System:
    return System("orangepi-800", dt_s=0.02)


@pytest.fixture
def xeon() -> System:
    return System("xeon-homogeneous", dt_s=1e-4)


@pytest.fixture
def dynamiq() -> System:
    return System("dynamiq-three-tier", dt_s=1e-4)


@pytest.fixture
def orangepi_acpi() -> System:
    return System(orangepi_800(firmware="acpi"), dt_s=1e-4)


@pytest.fixture(params=["raptor-lake-i7-13700", "orangepi-800", "xeon-homogeneous", "dynamiq-three-tier"])
def any_system(request) -> System:
    return System(request.param, dt_s=1e-4)


@pytest.fixture(scope="session")
def quick_results() -> Results:
    """The experiments of ``repro-reproduce --quick``, run once per session."""
    return run_experiments(quick=True, log=lambda message: None)
