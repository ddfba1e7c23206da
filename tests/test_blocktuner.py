"""Tests for analytical block tuning of the 6-loop GEMM."""

import pytest

from repro.errors import ConfigError
from repro.experiments.ablation_blocks import PAPER_BLOCKS, gemm6_cycles, tune_blocks
from repro.experiments.cli import run_experiment
from repro.simulator.hwconfig import HardwareConfig


class TestTuner:
    def test_tuned_never_worse(self):
        hw = HardwareConfig.paper2_rvv(512, 1.0)
        for (m, k, n) in ((512, 4608, 784), (64, 576, 50176), (128, 256, 5776)):
            blocks, gain = tune_blocks(m, k, n, hw)
            assert gain >= 1.0 - 1e-9

    def test_paper_blocks_within_15pct_at_1mb(self):
        """Paper I Table II's spread was ~10%: the fixed blocks must stay
        close to our tuned optimum at the 1 MB cache they were tuned for."""
        hw = HardwareConfig.paper2_rvv(512, 1.0)
        _, gain = tune_blocks(512, 4608, 196, hw)
        assert gain < 1.15

    def test_tuner_respects_l2_capacity(self):
        blocks, _ = tune_blocks(512, 4608, 784, HardwareConfig.paper2_rvv(512, 1.0))
        bm, bn, bk = blocks
        assert bk * bn * 4 <= 1024 * 1024

    def test_bigger_cache_admits_bigger_panels(self):
        small, _ = tune_blocks(512, 4608, 784, HardwareConfig.paper2_rvv(512, 1.0))
        big, _ = tune_blocks(512, 4608, 784, HardwareConfig.paper2_rvv(512, 64.0))
        assert big[1] * big[2] >= small[1] * small[2]

    def test_cycles_validation(self):
        hw = HardwareConfig.paper2_rvv(512, 1.0)
        with pytest.raises(ConfigError):
            gemm6_cycles(8, 8, 8, hw, (0, 512, 128))

    def test_cache_of_tuning_results(self):
        hw = HardwareConfig.paper2_rvv(512, 1.0)
        a = tune_blocks(64, 576, 50176, hw)
        b = tune_blocks(64, 576, 50176, hw)
        assert a == b  # deterministic: same blocks, same gain


class TestBlockAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("ablation-blocks")

    def test_gains_exist_but_stay_small(self, result):
        """Re-tuning helps a little everywhere — blocking itself is the win."""
        gains = list(result.data["speedups"].values())
        assert all(1.0 <= g <= 1.35 for g in gains)
        assert max(gains) > 1.05

    def test_paper_blocks_recorded(self, result):
        assert result.data["paper_blocks"] == PAPER_BLOCKS
