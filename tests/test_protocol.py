"""Control-protocol emulation tests.

Derived values frozen here: the analytic delivery probability at PRR 0.5
is 1 - (1 - 0.25)^4 = 0.68359375; the 37.5 m reception rate interpolates
to (0.98 + 0.50) / 2 = 0.74; a five-device ack schedule needs 25 ms, which
outgrows the 21 ms nominal timeout.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from stressgrid.homes import Home
from stressgrid.levels import PowerLevel
from stressgrid.protocol import (
    DRAW_BLOCK,
    CommandChannel,
    LinkModel,
    ack_slot,
    attempt_timeout_ms,
    decode,
    deliver,
    encode,
    overhead_power,
)


class TestFrames:
    def test_all_relays_on_single_device(self):
        frame = encode([(True,) * 5])
        assert frame == b"\x1f"
        assert decode(frame, 1) == (True,) * 5

    def test_all_relays_off(self):
        assert encode([(False,) * 5]) == b"\x00"

    def test_positional_encoding(self):
        columns = [(False,) * 5, (True, False, False, False, False), (False,) * 5]
        frame = encode(columns)
        assert frame[1] == 0x01
        assert decode(frame, 2) == (True, False, False, False, False)

    def test_round_trip_exhaustive(self):
        assert helpers.check_frame_round_trip() == 160

    def test_wrong_bit_count_rejected(self):
        with pytest.raises(ValueError, match="relay bits"):
            encode([(True, False)])

    def test_device_id_bounds(self):
        frame = encode([(False,) * 5] * 3)
        with pytest.raises(ValueError, match="device id"):
            decode(frame, 0)
        with pytest.raises(ValueError, match="device id"):
            decode(frame, 4)

    def test_padding_bits_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            decode(b"\xff", 1)


class TestAckSlots:
    def test_offsets(self):
        assert ack_slot(1) == 0.0
        assert ack_slot(5) == 20.0

    def test_pairwise_disjoint(self):
        slots = [ack_slot(i) for i in range(1, 51)]
        assert len(set(slots)) == 50
        assert all(b - a == 5.0 for a, b in zip(slots, slots[1:]))

    def test_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            ack_slot(0)


class TestLinkModel:
    def test_prr_table_points(self):
        link = LinkModel()
        assert link.prr_at(10.0) == 1.0
        assert link.prr_at(25.0) == 0.98
        assert link.prr_at(50.0) == 0.50

    def test_prr_interpolation_and_clamping(self):
        link = LinkModel()
        assert link.prr_at(37.5) == pytest.approx(0.74)
        assert link.prr_at(5.0) == 1.0
        assert link.prr_at(80.0) == 0.50

    def test_delivery_probability_analytic(self):
        link = LinkModel()
        assert link.delivery_probability(50.0) == pytest.approx(0.68359375)
        assert link.delivery_probability(10.0) == 1.0

    def test_timeout_stretches_for_large_frames(self):
        assert attempt_timeout_ms(1) == 21.0
        assert attempt_timeout_ms(5) == 25.0


class TestDeliver:
    def test_perfect_link_first_attempt(self):
        link = LinkModel()
        got = deliver(b"\x1f", link, 10.0, np.random.default_rng(0))
        assert got.delivered
        assert got.attempts == 1
        assert got.latency_ms == pytest.approx(30.0)

    def test_worst_case_software_path(self):
        link = LinkModel()
        got = deliver(b"\x1f", link, 10.0, np.random.default_rng(0), worst_case=True)
        assert got.latency_ms == pytest.approx(36.0)

    def test_dead_link_nack(self):
        link = LinkModel(prr_by_distance={10.0: 0.0})
        got = deliver(b"\x00", link, 10.0, np.random.default_rng(1))
        assert not got.delivered
        assert got.attempts == 4
        assert got.latency_ms >= 3 * 21.0

    def test_monte_carlo_delivery_rate(self):
        link = LinkModel()
        rng = np.random.default_rng(2)
        n = 100_000
        delivered = sum(deliver(b"\x00", link, 50.0, rng).delivered for _ in range(n))
        assert delivered / n == pytest.approx(0.68359375, abs=0.01)

    def test_typical_latency_band(self):
        # stability window is five minutes; the command path must be far
        # inside it, and the typical delivered latency sits at 30 ms
        link = LinkModel()
        rng = np.random.default_rng(3)
        lats = [deliver(b"\x00", link, 10.0, rng).latency_ms for _ in range(200)]
        assert all(abs(l - 30.0) <= 2.0 for l in lats)
        assert max(lats) < 5 * 60 * 1000 / 100

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            deliver(b"", LinkModel(), 10.0, np.random.default_rng(4))


class TestOverheadPower:
    def test_four_room_home(self):
        assert overhead_power(4) == pytest.approx(1.96, abs=1e-9)
        assert overhead_power(4, shed=True) == pytest.approx(0.50, abs=1e-9)

    def test_one_room_home(self):
        assert overhead_power(1) == pytest.approx(0.76, abs=1e-9)

    def test_rooms_required(self):
        with pytest.raises(ValueError, match="room"):
            overhead_power(0)


class TestCommandChannel:
    def make_home(self, class_models):
        return Home(helpers.make_fleet(class_models["A"]), 0)

    def test_perfect_by_default(self, class_models):
        home = self.make_home(class_models)
        channel = CommandChannel(1.0, None)
        assert channel.landing(3) is None
        assert channel.apply(home, PowerLevel.L3)
        assert home.current_level is PowerLevel.L3
        assert channel.sent == 1 and channel.lost == 0

    def test_certain_delivery_draws_nothing(self, class_models):
        home = self.make_home(class_models)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        channel = CommandChannel(LinkModel().delivery_probability(10.0), rng)
        assert channel.apply(home, PowerLevel.L2)
        assert rng.bit_generator.state == before

    def test_lossy_link_drops_commands(self, class_models):
        home = self.make_home(class_models)
        channel = CommandChannel(LinkModel().delivery_probability(50.0), np.random.default_rng(5))
        outcomes = []
        for _ in range(2000):
            home.fleet.level[home.id] = PowerLevel.L5
            outcomes.append(channel.apply(home, PowerLevel.L2))
            if not outcomes[-1]:
                assert home.current_level is PowerLevel.L5  # state unchanged
        rate = sum(outcomes) / len(outcomes)
        assert rate == pytest.approx(0.68359375, abs=0.03)
        assert channel.sent == 2000
        assert channel.lost == 2000 - sum(outcomes)

    def test_deterministic_given_seed(self, class_models):
        home = self.make_home(class_models)

        def run(seed):
            channel = CommandChannel(LinkModel().delivery_probability(50.0), np.random.default_rng(seed))
            return [channel.apply(home, PowerLevel.L4) for _ in range(100)]

        assert run(7) == run(7)

    @pytest.mark.parametrize("blocks", range(4))
    @pytest.mark.parametrize("remainder", [0, 1, DRAW_BLOCK - 1])
    def test_outcomes_are_per_command_draws_across_blocks(self, class_models, blocks, remainder):
        home = self.make_home(class_models)
        n, p, seed = blocks * DRAW_BLOCK + remainder, LinkModel().delivery_probability(50.0), 19
        channel = CommandChannel(p, np.random.default_rng(seed))
        outcomes = [channel.apply(home, PowerLevel.L3) for _ in range(n)]
        expected = (np.random.default_rng(seed).random(n) < p).tolist()
        assert outcomes == expected
        assert channel.sent == n
        assert channel.lost == expected.count(False)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["peek", "apply"]),
                st.sampled_from([0, 1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1]) | st.integers(0, 2 * DRAW_BLOCK + 1),
            ),
            max_size=6,
        ),
    )
    @example(seed=19, ops=[("apply", DRAW_BLOCK), ("peek", 0), ("peek", 1), ("apply", 1)])
    @example(seed=19, ops=[("apply", 1), ("peek", DRAW_BLOCK - 1), ("apply", DRAW_BLOCK - 2), ("peek", DRAW_BLOCK + 1)])
    @example(seed=19, ops=[("peek", 2 * DRAW_BLOCK + 1), ("apply", DRAW_BLOCK - 1), ("peek", DRAW_BLOCK), ("apply", 2)])
    def test_landing_tells_what_the_next_commands_do(self, class_models, seed, ops):
        """Any mix of `landing(n)` peeks and runs of `apply` calls, with n
        past DRAW_BLOCK and positions at block edges: each peek equals what
        the commands after it do, a peek consumes nothing, and the outcomes
        are one `rng.random()` per command against the delivery chance."""
        home, p = self.make_home(class_models), LinkModel().delivery_probability(50.0)
        channel = CommandChannel(p, np.random.default_rng(seed))
        outcomes, peeks = [], []
        for op, n in ops:
            if op == "peek":
                peek = channel.landing(n).tolist()
                assert len(peek) == n
                assert channel.landing(n).tolist() == peek
                peeks.append((len(outcomes), peek))
            else:
                outcomes += [channel.apply(home, PowerLevel.L3) for _ in range(n)]
        end = max([start + len(peek) for start, peek in peeks], default=0)
        outcomes += [channel.apply(home, PowerLevel.L3) for _ in range(end - len(outcomes))]
        for start, peek in peeks:
            assert peek == outcomes[start : start + len(peek)]
        assert outcomes == (np.random.default_rng(seed).random(len(outcomes)) < p).tolist()
        assert (channel.sent, channel.lost) == (len(outcomes), outcomes.count(False))
