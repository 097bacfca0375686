"""Unit tests for the channel models (repro.sim.radio)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.messages import Frame, FrameKind
from repro.core.protocol import ChannelState
from repro.sim.radio import FriisChannel, Transmission, UnitDiskChannel


def tx(sender, x, y, kind=FrameKind.DATA_BIT):
    return Transmission(sender, (float(x), float(y)), Frame(kind, sender))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestUnitDiskChannel:
    def test_silence_with_no_transmitters(self, rng):
        chan = UnitDiskChannel(2.0)
        obs = chan.observe([0, 1], np.array([[0, 0], [1, 1]], float), [], rng)
        assert [o.state for o in obs] == [ChannelState.SILENT, ChannelState.SILENT]

    def test_single_transmitter_in_range_decodes(self, rng):
        chan = UnitDiskChannel(2.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(5, 1.0, 1.0)], rng)
        assert obs[0].state is ChannelState.MESSAGE
        assert obs[0].frame.sender == 5
        assert obs[0].busy

    def test_single_transmitter_out_of_range_is_silent(self, rng):
        chan = UnitDiskChannel(2.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(5, 5.0, 0.0)], rng)
        assert obs[0].state is ChannelState.SILENT
        assert not obs[0].busy

    def test_two_transmitters_collide(self, rng):
        chan = UnitDiskChannel(2.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 1.0, 0.0), tx(2, 0.0, 1.0)], rng)
        assert obs[0].state is ChannelState.COLLISION
        assert obs[0].busy
        assert obs[0].decoded is None

    def test_collision_only_affects_listeners_hearing_both(self, rng):
        chan = UnitDiskChannel(2.0)
        listeners = np.array([[0.0, 0.0], [10.0, 0.0]])
        obs = chan.observe([0, 1], listeners, [tx(1, 1.0, 0.0), tx(2, 9.0, 0.0)], rng)
        assert obs[0].state is ChannelState.MESSAGE
        assert obs[0].frame.sender == 1
        assert obs[1].state is ChannelState.MESSAGE
        assert obs[1].frame.sender == 2

    def test_linf_norm_range(self, rng):
        chan = UnitDiskChannel(2.0, norm="linf")
        # (2, 2) is within L-inf range 2 but outside L2 range 2*sqrt(2) > 2.
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 2.0, 2.0)], rng)
        assert obs[0].state is ChannelState.MESSAGE

    def test_capture_probability_one_always_decodes_something(self, rng):
        chan = UnitDiskChannel(2.0, capture_probability=1.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 1.0, 0.0), tx(2, 0.0, 1.0)], rng)
        assert obs[0].state is ChannelState.MESSAGE
        assert obs[0].frame.sender in (1, 2)

    def test_loss_probability_one_turns_messages_into_collisions(self, rng):
        chan = UnitDiskChannel(2.0, loss_probability=1.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 1.0, 0.0)], rng)
        # The frame is lost but the energy is still sensed: silence is never forged.
        assert obs[0].state is ChannelState.COLLISION

    def test_empty_listener_list(self, rng):
        chan = UnitDiskChannel(2.0)
        assert chan.observe([], np.empty((0, 2)), [tx(1, 0, 0)], rng) == []

    def test_radius_is_inclusive(self, rng):
        chan = UnitDiskChannel(2.0)
        at_range = chan.observe([0], np.array([[0.0, 0.0]]), [tx(5, 2.0, 0.0)], rng)
        beyond = chan.observe([0], np.array([[0.0, 0.0]]), [tx(5, 2.5, 0.0)], rng)
        assert at_range[0].state is ChannelState.MESSAGE
        assert beyond[0].state is ChannelState.SILENT

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            UnitDiskChannel(0)
        with pytest.raises(ValueError):
            UnitDiskChannel(1, capture_probability=1.5)
        with pytest.raises(ValueError):
            UnitDiskChannel(1, loss_probability=-0.1)
        with pytest.raises(ValueError):
            UnitDiskChannel(1, norm="manhattan")


class TestFriisChannel:
    def test_lone_transmission_within_range_decodes(self, rng):
        chan = FriisChannel(reception_range=4.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 3.0, 0.0)], rng)
        assert obs[0].state is ChannelState.MESSAGE

    def test_lone_transmission_beyond_sense_range_is_silent(self, rng):
        chan = FriisChannel(reception_range=4.0, sense_range_factor=1.5)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 10.0, 0.0)], rng)
        assert obs[0].state is ChannelState.SILENT

    def test_transmission_in_grey_zone_is_sensed_but_not_decoded(self, rng):
        chan = FriisChannel(reception_range=4.0, sense_range_factor=2.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 6.0, 0.0)], rng)
        assert obs[0].state is ChannelState.COLLISION

    def test_capture_effect_near_far(self, rng):
        """A much closer transmitter captures the channel despite interference."""
        chan = FriisChannel(reception_range=4.0, capture_threshold_db=6.0)
        obs = chan.observe(
            [0], np.array([[0.0, 0.0]]), [tx(1, 1.0, 0.0), tx(2, 4.0, 0.0)], rng
        )
        assert obs[0].state is ChannelState.MESSAGE
        assert obs[0].frame.sender == 1

    def test_comparable_powers_collide(self, rng):
        chan = FriisChannel(reception_range=4.0, capture_threshold_db=6.0)
        obs = chan.observe(
            [0], np.array([[0.0, 0.0]]), [tx(1, 2.0, 0.0), tx(2, 0.0, 2.0)], rng
        )
        assert obs[0].state is ChannelState.COLLISION

    def test_sense_range_property(self):
        chan = FriisChannel(reception_range=4.0, sense_range_factor=1.5)
        assert chan.sense_range == pytest.approx(6.0)
        # Beyond the reception range but inside the sense range: busy, not decoded.
        origin = np.array([[0.0, 0.0]])
        sensed = chan.observe([0], origin, [tx(1, 5.9, 0.0)], np.random.default_rng(0))
        unheard = chan.observe([0], origin, [tx(1, 6.2, 0.0)], np.random.default_rng(0))
        assert sensed[0].state is ChannelState.COLLISION
        assert unheard[0].state is ChannelState.SILENT

    def test_loss_probability(self, rng):
        chan = FriisChannel(reception_range=4.0, loss_probability=1.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 1.0, 0.0)], rng)
        assert obs[0].state is ChannelState.COLLISION

    def test_no_transmitters(self, rng):
        chan = FriisChannel(reception_range=4.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [], rng)
        assert obs[0].state is ChannelState.SILENT

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FriisChannel(0)
        with pytest.raises(ValueError):
            FriisChannel(4, path_loss_exponent=0)
        with pytest.raises(ValueError):
            FriisChannel(4, sense_range_factor=0.5)
        with pytest.raises(ValueError):
            FriisChannel(4, loss_probability=2.0)

    def test_power_monotonically_decreasing(self):
        chan = FriisChannel(reception_range=4.0)
        powers = [chan._power_at(d) for d in (1.0, 2.0, 4.0, 8.0)]
        assert powers == sorted(powers, reverse=True)

    def test_reception_threshold_consistent_with_range(self):
        chan = FriisChannel(reception_range=4.0)
        assert chan._power_at(4.0) == pytest.approx(chan.reception_threshold)
        assert chan._power_at(4.5) < chan.reception_threshold
