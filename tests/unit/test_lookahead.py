"""The inter-group latency floor and the transport timers built on it.

``LatencyModel.min_inter_group()`` is the smallest delay any
inter-group link can ever produce.  ``ReliableTransport`` sizes its ack
coalescing window and its default retransmission timeout from it.
These tests pin the derivation across fixed, heterogeneous (pairwise
override) and WAN (jittered) models; the fail-fast contract (a
non-positive or missing bound raises ``ValueError``); and the
transport's use of the bound, including its fallback to 1.0 when the
bound raises.
"""

import pytest

from repro.net.topology import Fixed, Jittered, LatencyModel, Uniform
from repro.runtime.builder import build_system


class TestMinInterGroup:
    def test_fixed_model_uses_inter_value(self):
        model = LatencyModel(intra=Fixed(0.001), inter=Fixed(1.0))
        assert model.min_inter_group() == 1.0

    def test_intra_latency_does_not_constrain_lookahead(self):
        # Only inter-group links count: a tiny intra delay must not
        # shrink the bound.
        model = LatencyModel(intra=Fixed(1e-6), inter=Fixed(5.0))
        assert model.min_inter_group() == 5.0

    def test_heterogeneous_pairwise_overrides_take_the_min(self):
        model = LatencyModel(
            intra=Fixed(0.001), inter=Fixed(10.0),
            pairwise_inter={(0, 1): Fixed(3.0), (1, 0): Fixed(7.0)})
        assert model.min_inter_group() == 3.0

    def test_wan_jittered_bound_is_the_base(self):
        # Exponential jitter has support [0, inf); the floor is the base.
        model = LatencyModel.wan(inter_ms=100.0, inter_jitter_ms=5.0)
        assert model.min_inter_group() == 100.0

    def test_uniform_bound_is_lo(self):
        model = LatencyModel(intra=Fixed(0.001), inter=Uniform(2.0, 9.0))
        assert model.min_inter_group() == 2.0

    def test_zero_bound_raises(self):
        model = LatencyModel(intra=Fixed(0.001), inter=Fixed(0.0))
        with pytest.raises(ValueError, match="strictly positive"):
            model.min_inter_group()

    def test_zero_pairwise_bound_raises(self):
        # One degenerate link poisons the whole bound.
        model = LatencyModel(
            intra=Fixed(0.001), inter=Fixed(1.0),
            pairwise_inter={(2, 0): Jittered(0.0, 5.0)})
        with pytest.raises(ValueError, match="strictly positive"):
            model.min_inter_group()

    def test_missing_inter_distribution_raises(self):
        model = LatencyModel(intra=Fixed(0.001), inter=None)
        with pytest.raises(ValueError, match="no inter-group"):
            model.min_inter_group()


class TestTransportTimers:
    """``ReliableTransport`` takes ``base = min_inter_group()`` (1.0 when
    that raises), sets ``ack_delay = base`` and a default RTO of
    ``3*base + 2*ack_delay`` for links whose delay is sampled."""

    @staticmethod
    def _transport(latency):
        system = build_system(protocol="a1", group_sizes=[2, 2],
                              latency=latency, transport="reliable")
        return system.transport

    def test_logical_latency_base_is_one(self):
        tsp = self._transport(LatencyModel.logical())
        assert tsp.ack_delay == 1.0
        assert tsp._default_rto == 3.0 * 1.0 + 2.0 * 1.0

    def test_wan_base_is_the_inter_lower_bound(self):
        tsp = self._transport(
            LatencyModel.wan(inter_ms=80.0, inter_jitter_ms=4.0))
        assert tsp.ack_delay == 80.0
        assert tsp._default_rto == 3.0 * 80.0 + 2.0 * 80.0
        # The jittered inter-group link has no fixed delay, so a fresh
        # send link across groups starts from the default RTO.
        assert tsp._new_send_link(0, 2).rto == tsp._default_rto

    def test_zero_lower_bound_falls_back_to_one(self):
        latency = LatencyModel(intra=Fixed(0.001),
                               inter=Jittered(0.0, 5.0))
        with pytest.raises(ValueError, match="strictly positive"):
            latency.min_inter_group()
        tsp = self._transport(latency)
        assert tsp.ack_delay == 1.0
        assert tsp._default_rto == 3.0 * 1.0 + 2.0 * 1.0
