"""Every microbenchmark runs, verifies, and shows the paper's direction.

Parameters are scaled down for test speed; the benchmark harness in
``benchmarks/`` runs the paper-scale sweeps.
"""

import numpy as np
import pytest

from repro.arch.presets import CARINA
from repro.core import (
    BankRedux,
    CoMem,
    Conkernels,
    DynParallel,
    GSOverlap,
    HDOverlap,
    MemAlign,
    MiniTransfer,
    ReadOnlyMem,
    Shmem,
    Shuffle,
    TaskGraphBench,
    UniMem,
    WarpDivRedux,
)


class TestWarpDivRedux:
    @pytest.fixture(scope="class")
    def result(self):
        return WarpDivRedux().run(n=1 << 18)

    def test_verified(self, result):
        assert result.verified

    def test_nowd_wins(self, result):
        assert result.speedup > 1.0

    def test_modest_speedup(self, result):
        # memory-bound kernel: divergence costs ~5-20%, not 2x
        assert result.speedup < 1.5

    def test_efficiency_metrics(self, result):
        assert result.metrics["wd_warp_execution_efficiency"] < 0.75
        assert result.metrics["nowd_warp_execution_efficiency"] == 1.0
        assert result.metrics["wd_branch_efficiency"] == 0.0
        assert result.metrics["nowd_branch_efficiency"] == 1.0

    def test_sweep_shape(self):
        sweep = WarpDivRedux().sweep([1 << 14, 1 << 16])
        assert len(sweep.x_values) == 2
        assert all(
            w >= n for w, n in zip(sweep.series["WD"], sweep.series["noWD"])
        )


class TestDynParallel:
    def test_small_image_overhead_dominates(self):
        r = DynParallel().run(size=128, max_dwell=64)
        assert r.verified
        assert r.speedup < 1.0  # paper: overhead outweighs benefit when small

    def test_work_avoidance_grows(self):
        r1 = DynParallel().run(size=128, max_dwell=64)
        r2 = DynParallel().run(size=512, max_dwell=64)
        assert r2.speedup > r1.speedup

    def test_fills_avoid_interior(self):
        r = DynParallel().run(size=512, max_dwell=64)
        assert r.metrics["pixel_fraction_computed"] < 1.0
        assert r.metrics["fill_fraction"] > 0.0


class TestConkernels:
    @pytest.fixture(scope="class")
    def result(self):
        return Conkernels().run(n_kernels=8, rounds=32)

    def test_verified(self, result):
        assert result.verified

    def test_near_linear_speedup(self, result):
        # paper reports ~7x with 8 kernels
        assert 6.0 < result.speedup <= 8.5

    def test_timelines_in_notes(self, result):
        assert "serial timeline" in result.notes
        assert "concurrent timeline" in result.notes


class TestTaskGraph:
    @pytest.fixture(scope="class")
    def result(self):
        return TaskGraphBench().run(chain_len=4, iterations=10, n=2048)

    def test_verified(self, result):
        assert result.verified

    def test_graph_wins(self, result):
        assert result.speedup > 1.5


class TestShmem:
    @pytest.fixture(scope="class")
    def result(self):
        return Shmem().run(n=128)

    def test_verified(self, result):
        assert result.verified

    def test_tiled_wins_modestly(self, result):
        assert 1.0 < result.speedup < 4.0

    def test_traffic_reduced(self, result):
        assert result.metrics["tiled_dram_bytes"] <= result.metrics["naive_dram_bytes"]


class TestCoMem:
    @pytest.fixture(scope="class")
    def result(self):
        return CoMem().run(n=1 << 22)

    def test_verified(self, result):
        assert result.verified

    def test_order_of_magnitude(self, result):
        # paper: ~18x; simulated ~15x
        assert result.speedup > 8.0

    def test_transaction_ratio(self, result):
        assert result.metrics["block_transactions_per_request"] > 8
        assert result.metrics["cyclic_transactions_per_request"] == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1000, 1 << 16, 3 << 17])
    def test_n_not_a_multiple_of_the_thread_count(self, n):
        # 1024 x 256 threads: below that the block kernel issued no
        # requests at all, and above it a remainder was never written
        assert CoMem().run(n=n).verified


class TestMemAlign:
    @pytest.fixture(scope="class")
    def result(self):
        return MemAlign().run(n=1 << 22)

    def test_verified(self, result):
        assert result.verified

    def test_small_effect(self, result):
        # paper: ~3% on V100
        assert 1.0 < result.speedup < 1.15

    def test_transactions_double(self, result):
        assert result.metrics["misaligned_transactions_per_request"] == pytest.approx(
            2.0, abs=0.1
        )


class TestGSOverlap:
    @pytest.fixture(scope="class")
    def result(self):
        return GSOverlap().run(n=1 << 20)

    def test_verified(self, result):
        assert result.verified

    def test_marginal_improvement(self, result):
        # paper: 1.04x best — "small but real"
        assert 1.0 <= result.speedup < 1.2

    def test_issue_cycles_reduced(self, result):
        assert result.metrics["async_issue_cycles"] < result.metrics["sync_issue_cycles"]


class TestShuffle:
    @pytest.fixture(scope="class")
    def result(self):
        return Shuffle().run(n=1 << 20)

    def test_verified(self, result):
        assert result.verified

    def test_shuffle_wins(self, result):
        assert 1.0 < result.speedup < 2.0

    def test_fewer_barriers(self, result):
        assert result.metrics["shfl_barriers"] < result.metrics["seq_barriers"]


class TestBankRedux:
    @pytest.fixture(scope="class")
    def result(self):
        return BankRedux().run(n=1 << 18)

    def test_verified(self, result):
        assert result.verified

    def test_conflict_free_wins(self, result):
        # paper: ~1.3x
        assert 1.1 < result.speedup < 2.5

    def test_efficiency_gap(self, result):
        assert result.metrics["bc_shared_efficiency"] < 0.5
        assert result.metrics["seq_shared_efficiency"] == 1.0


class TestHDOverlap:
    @pytest.fixture(scope="class")
    def result(self):
        return HDOverlap().run(n=1 << 20)

    def test_verified(self, result):
        assert result.verified

    def test_async_wins_modestly(self, result):
        # paper: 1.036x; dual copy engines let us hide a bit more
        assert 1.0 < result.speedup < 1.6

    def test_more_compute_more_benefit(self):
        light = HDOverlap().run(n=1 << 18, rounds=1)
        heavy = HDOverlap().run(n=1 << 18, rounds=64)
        assert heavy.speedup > light.speedup


class TestReadOnlyMem:
    def test_k80_texture_wins(self):
        r = ReadOnlyMem().run(n=512)
        assert r.verified
        assert r.speedup > 1.5  # paper: up to ~4x on K80

    def test_v100_no_gap(self):
        r = ReadOnlyMem(CARINA).run(n=512)
        assert r.verified
        assert 0.8 < r.speedup < 1.3  # paper: no significant difference


class TestUniMem:
    def test_sparse_access_wins(self):
        r = UniMem().run(n=1 << 22, stride=1 << 15)
        assert r.verified
        assert r.speedup > 1.2

    def test_dense_access_loses(self):
        r = UniMem().run(n=1 << 20, stride=1)
        assert r.verified
        assert r.speedup < 1.0

    def test_crossover_direction(self):
        dense = UniMem().run(n=1 << 21, stride=1)
        sparse = UniMem().run(n=1 << 21, stride=1 << 15)
        assert sparse.speedup > dense.speedup


class TestMiniTransfer:
    @pytest.fixture(scope="class")
    def result(self):
        return MiniTransfer().run(n=512, nnz=2048)

    def test_verified(self, result):
        assert result.verified

    def test_csr_wins_big(self, result):
        assert result.speedup > 3.0

    def test_transfer_accounting(self, result):
        assert result.metrics["csr_transfer_bytes"] < result.metrics["dense_transfer_bytes"] / 10

    def test_sparser_wins_more(self):
        dense_ish = MiniTransfer().run(n=512, nnz=16384)
        sparse = MiniTransfer().run(n=512, nnz=512)
        assert sparse.speedup > dense_ish.speedup


class TestBenchResultAPI:
    def test_str_contains_verdict(self):
        r = WarpDivRedux().run(n=1 << 14)
        assert "WarpDivRedux" in str(r)
        assert "ok" in str(r)

    def test_speedup_infinite_guard(self):
        from repro.core.base import BenchResult

        r = BenchResult(
            benchmark="x", system="s", baseline_name="a", optimized_name="b",
            baseline_time=1.0, optimized_time=0.0, verified=True,
        )
        assert r.speedup == float("inf")
