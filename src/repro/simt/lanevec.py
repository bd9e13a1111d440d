"""Per-lane vectors: the values CUDA threads compute on.

A :class:`LaneVec` holds one value per thread of the launch (a flat
NumPy array over all lanes) and overloads Python's operators so kernel
code reads like ordinary scalar CUDA C::

    i = ctx.global_thread_id()
    y = a * x + y          # charges one FP32 mul and one FP32 add

Every operator both computes the result (vectorized across the grid)
and charges the thread context for one warp-wide instruction of the
appropriate class under the *current activity mask*, which is how the
lock-step interpreter accumulates issue cycles including divergence
effects.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

__all__ = ["LaneVec", "cost_class_for"]


def cost_class_for(dtype: np.dtype, op: str) -> str:
    """Map a result dtype and operator kind to an issue-cost class."""
    if op == "cmp":
        return "cmp"
    if op == "shift":
        return "shift"
    kind = dtype.kind
    if op == "div":
        return "div" if kind == "f" else "int"
    if kind == "f":
        return "fp64" if dtype.itemsize == 8 else "fp32"
    return "int"


class LaneVec:
    """One value per lane, bound to a thread context for cost charging."""

    __slots__ = ("ctx", "data")

    def __init__(self, ctx: Any, data: np.ndarray) -> None:
        self.ctx = ctx
        self.data = np.asarray(data)

    # -- coercion ----------------------------------------------------------
    def _coerce(self, other: Any) -> np.ndarray | int | float | bool:
        if isinstance(other, LaneVec):
            return other.data
        if isinstance(other, (int, float, bool, np.generic)):
            return other
        if isinstance(other, np.ndarray):
            return other
        return NotImplemented  # type: ignore[return-value]

    def _make(self, data: np.ndarray) -> "LaneVec":
        return LaneVec(self.ctx, data)

    def _binop(
        self,
        other: Any,
        fn: Callable[[Any, Any], np.ndarray],
        op_kind: str,
        swap: bool = False,
    ) -> "LaneVec":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        out = fn(o, self.data) if swap else fn(self.data, o)
        self.ctx.charge(cost_class_for(np.asarray(out).dtype if op_kind != "cmp" else self.data.dtype, op_kind))
        return self._make(out)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.add, "arith")

    __radd__ = __add__

    def __sub__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.subtract, "arith")

    def __rsub__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.subtract, "arith", swap=True)

    def __mul__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.multiply, "arith")

    __rmul__ = __mul__

    def __truediv__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.true_divide, "div")

    def __rtruediv__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.true_divide, "div", swap=True)

    def __floordiv__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.floor_divide, "div")

    def __rfloordiv__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.floor_divide, "div", swap=True)

    def __mod__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.mod, "div")

    def __rmod__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.mod, "div", swap=True)

    def __neg__(self) -> "LaneVec":
        self.ctx.charge(cost_class_for(self.data.dtype, "arith"))
        return self._make(-self.data)

    def __abs__(self) -> "LaneVec":
        self.ctx.charge(cost_class_for(self.data.dtype, "arith"))
        return self._make(np.abs(self.data))

    # -- bit ops (bool/int lanes) ---------------------------------------------
    def __and__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.bitwise_and, "arith")

    __rand__ = __and__

    def __or__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.bitwise_or, "arith")

    __ror__ = __or__

    def __xor__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.bitwise_xor, "arith")

    __rxor__ = __xor__

    def __invert__(self) -> "LaneVec":
        self.ctx.charge(cost_class_for(self.data.dtype, "arith"))
        return self._make(~self.data)

    def __lshift__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.left_shift, "shift")

    def __rshift__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.right_shift, "shift")

    # -- comparisons ------------------------------------------------------------
    def __lt__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.less, "cmp")

    def __le__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.less_equal, "cmp")

    def __gt__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.greater, "cmp")

    def __ge__(self, o: Any) -> "LaneVec":
        return self._binop(o, np.greater_equal, "cmp")

    def __eq__(self, o: Any) -> "LaneVec":  # type: ignore[override]
        return self._binop(o, np.equal, "cmp")

    def __ne__(self, o: Any) -> "LaneVec":  # type: ignore[override]
        return self._binop(o, np.not_equal, "cmp")

    __hash__ = None  # type: ignore[assignment]

    # -- conversions ---------------------------------------------------------
    def astype(self, dtype: np.dtype | type) -> "LaneVec":
        """Type conversion; charged as a CVT instruction."""
        self.ctx.charge("cvt")
        return self._make(self.data.astype(dtype))

    # -- introspection (free: not device work) ---------------------------------
    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LaneVec({self.data!r})"
