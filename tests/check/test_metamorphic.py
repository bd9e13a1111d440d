"""Metamorphic-relation runner (``repro.check.metamorphic``)."""

import pytest

from repro.check.metamorphic import list_relations, run_relations
from repro.common.errors import ReproError


class TestRegistry:
    def test_known_relations_registered(self):
        names = list_relations()
        assert "scale-n-scales-transactions" in names
        assert "block-order-permutation-preserves-counters" in names
        assert "warp-size-shifts-divergence" in names

    def test_unknown_relation_raises(self):
        with pytest.raises(ReproError, match="unknown relation"):
            run_relations(["no-such-relation"])


class TestRelationsHold:
    def test_scaling_relation_passes_on_both_backends(self):
        outcomes = run_relations(["scale-n-scales-transactions"])
        assert {o.backend for o in outcomes} == {"reference", "jit"}
        assert all(o.passed for o in outcomes), [
            str(o) for o in outcomes if not o.passed
        ]

    def test_block_permutation_relation_passes(self):
        outcomes = run_relations(
            ["block-order-permutation-preserves-counters"],
            backends=("reference",),
        )
        assert outcomes and all(o.passed for o in outcomes)
        assert "counters + output identical" in outcomes[0].detail

    def test_warp_size_relation_passes(self):
        outcomes = run_relations(
            ["warp-size-shifts-divergence"], backends=("jit",)
        )
        # one outcome per width, all attributing the divergence shift
        assert {o.subject for o in outcomes} == {"warp16", "warp32", "warp64"}
        assert all(o.passed for o in outcomes), [
            str(o) for o in outcomes if not o.passed
        ]
