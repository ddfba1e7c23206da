"""Shared fixtures and a suite-wide hang watchdog for the test suite."""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest
from hypothesis import settings

# fully deterministic property tests: same examples on every run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

from repro.nn.layer import ConvSpec
from repro.simulator.hwconfig import HardwareConfig

#: Per-test hang cap in seconds.  The chaos suite injects replica hangs on
#: purpose; a regression that defeats the router's timeout/retry machinery
#: must fail the test, not wedge the whole suite (or a CI job) forever.
SUITE_TIMEOUT_S = 300


def pytest_configure(config) -> None:
    if config.pluginmanager.hasplugin("timeout"):
        # CI installs pytest-timeout (the ``dev`` extra); it handles
        # threads and subprocesses better than the SIGALRM fallback below.
        if getattr(config.option, "timeout", None) is None:
            config.option.timeout = SUITE_TIMEOUT_S


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback watchdog when pytest-timeout is unavailable."""
    use_alarm = (
        not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the suite-wide {SUITE_TIMEOUT_S}s watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(SUITE_TIMEOUT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_spec() -> ConvSpec:
    """A small 3x3/stride-1 layer every algorithm supports."""
    return ConvSpec(ic=5, oc=7, ih=13, iw=11, kh=3, kw=3, stride=1, index=1)


@pytest.fixture
def small_tensors(rng, small_spec):
    x = rng.standard_normal((small_spec.ic, small_spec.ih, small_spec.iw)).astype(
        np.float32
    )
    w = (0.3 * rng.standard_normal(
        (small_spec.oc, small_spec.ic, small_spec.kh, small_spec.kw)
    )).astype(np.float32)
    return x, w


@pytest.fixture
def baseline_hw() -> HardwareConfig:
    return HardwareConfig.paper2_rvv(512, 1.0)


@pytest.fixture(scope="session")
def selection_dataset():
    """The 448-point dataset (built once per session; ~0.3 s)."""
    from repro.selection.dataset import build_dataset

    return build_dataset()


@pytest.fixture(scope="session")
def trained_selector(selection_dataset):
    """A trained AlgorithmSelector (cross-validated once per session)."""
    from repro.selection.predictor import AlgorithmSelector

    selector = AlgorithmSelector(n_estimators=60)
    selector.train(selection_dataset)
    return selector
