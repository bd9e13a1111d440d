"""LaneVec operator semantics and issue charging."""

import warnings

import numpy as np
import pytest

from repro.arch.presets import TESLA_V100
from repro.simt.context import ThreadContext
from repro.simt.dim3 import Dim3
from repro.simt.executor import run_kernel
from repro.simt.kernel import kernel
from repro.simt.lanevec import cost_class_for


@pytest.fixture
def ctx():
    return ThreadContext(TESLA_V100, Dim3(2), Dim3(64), name="t")


def lv(ctx, values, dtype=np.float32):
    data = np.asarray(values, dtype=dtype)
    full = np.resize(data, ctx.total_lanes)
    from repro.simt.lanevec import LaneVec

    return LaneVec(ctx, full)


class TestArithmetic:
    def test_add(self, ctx):
        out = lv(ctx, [1.0]) + lv(ctx, [2.0])
        assert np.all(out.data == 3.0)

    def test_scalar_radd(self, ctx):
        out = 1.0 + lv(ctx, [2.0])
        assert np.all(out.data == 3.0)

    def test_sub_rsub(self, ctx):
        assert np.all((lv(ctx, [5.0]) - 2.0).data == 3.0)
        assert np.all((10.0 - lv(ctx, [4.0])).data == 6.0)

    def test_mul(self, ctx):
        assert np.all((3 * lv(ctx, [2.0])).data == 6.0)

    def test_div(self, ctx):
        assert np.all((lv(ctx, [6.0]) / 2.0).data == 3.0)
        assert np.all((6.0 / lv(ctx, [2.0])).data == 3.0)

    def test_div_by_zero_no_warning(self):
        # run_kernel sets NumPy's error state for the whole body, so IEEE
        # results (inf, nan) come back without a RuntimeWarning
        seen = {}

        @kernel
        def divide(ctx):
            one = ctx.const(1.0)
            zero = ctx.zeros()
            seen["quotient"] = one / zero
            seen["sqrt"] = ctx.sqrt(zero - one)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_kernel(divide, 1, 32, gpu=TESLA_V100)
        assert np.isinf(seen["quotient"].data).all()
        assert np.isnan(seen["sqrt"].data).all()

    def test_floordiv_mod(self, ctx):
        v = lv(ctx, [7], dtype=np.int64)
        assert np.all((v // 2).data == 3)
        assert np.all((v % 2).data == 1)
        assert np.all((7 // lv(ctx, [2], np.int64)).data == 3)
        assert np.all((7 % lv(ctx, [4], np.int64)).data == 3)

    def test_neg_abs(self, ctx):
        v = lv(ctx, [-2.0])
        assert np.all((-v).data == 2.0)
        assert np.all(abs(v).data == 2.0)

    def test_shift(self, ctx):
        v = lv(ctx, [4], dtype=np.int64)
        assert np.all((v << 1).data == 8)
        assert np.all((v >> 2).data == 1)


class TestComparisonsAndBits:
    def test_comparisons(self, ctx):
        v = lv(ctx, [3.0])
        assert np.all((v < 4).data)
        assert np.all((v <= 3).data)
        assert np.all((v > 2).data)
        assert np.all((v >= 3).data)
        assert np.all((v == 3).data)
        assert np.all((v != 4).data)

    def test_bool_combination(self, ctx):
        v = lv(ctx, [3.0])
        both = (v > 2) & (v < 4)
        assert np.all(both.data)
        either = (v > 10) | (v < 4)
        assert np.all(either.data)
        assert not np.any((~(v == 3)).data)

    def test_xor(self, ctx):
        a = lv(ctx, [True], dtype=bool)
        b = lv(ctx, [False], dtype=bool)
        assert np.all((a ^ b).data)

    def test_unhashable(self, ctx):
        with pytest.raises(TypeError):
            hash(lv(ctx, [1.0]))


class TestConversion:
    def test_astype(self, ctx):
        out = lv(ctx, [1.9]).astype(np.int64)
        assert out.dtype == np.int64
        assert np.all(out.data == 1)


class TestCharging:
    def test_each_op_charges(self, ctx):
        before = ctx.stats.warp_instructions
        _ = lv(ctx, [1.0]) + lv(ctx, [2.0])
        assert ctx.stats.warp_instructions == before + ctx.active_warps

    def test_fp32_cost(self, ctx):
        before = ctx.stats.issue_cycles
        _ = lv(ctx, [1.0]) * 2.0
        per_warp = TESLA_V100.op_cycles("fp32")
        assert ctx.stats.issue_cycles == pytest.approx(
            before + per_warp * ctx.active_warps
        )

    def test_fp64_costs_more(self, ctx):
        b1 = ctx.stats.issue_cycles
        _ = lv(ctx, [1.0], np.float64) * 2.0
        fp64_cost = ctx.stats.issue_cycles - b1
        b2 = ctx.stats.issue_cycles
        _ = lv(ctx, [1.0], np.float32) * np.float32(2.0)
        fp32_cost = ctx.stats.issue_cycles - b2
        assert fp64_cost > fp32_cost

    def test_div_costs_more_than_mul(self, ctx):
        b1 = ctx.stats.issue_cycles
        _ = lv(ctx, [1.0]) / lv(ctx, [2.0])
        div_cost = ctx.stats.issue_cycles - b1
        b2 = ctx.stats.issue_cycles
        _ = lv(ctx, [1.0]) * lv(ctx, [2.0])
        mul_cost = ctx.stats.issue_cycles - b2
        assert div_cost > mul_cost


class TestCostClassFor:
    def test_float_kinds(self):
        assert cost_class_for(np.dtype(np.float32), "arith") == "fp32"
        assert cost_class_for(np.dtype(np.float64), "arith") == "fp64"

    def test_int(self):
        assert cost_class_for(np.dtype(np.int64), "arith") == "int"

    def test_div_float_vs_int(self):
        assert cost_class_for(np.dtype(np.float32), "div") == "div"
        assert cost_class_for(np.dtype(np.int32), "div") == "int"

    def test_cmp_shift(self):
        assert cost_class_for(np.dtype(np.float32), "cmp") == "cmp"
        assert cost_class_for(np.dtype(np.int32), "shift") == "shift"
