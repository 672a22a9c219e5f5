"""Emulation of the in-home wireless control protocol.

A command frame carries one byte per device: bits 0-4 are the five relay
states of the device's disconnectivity column, bits 5-7 are zero. Devices
acknowledge in fixed slots of 5 ms keyed by device id. A command attempt
succeeds only if both the command and its ack survive the link (packet
reception rate squared); the sender retries up to three times, waiting out
the ack timeout on each failure.

Statistics produced per delivery: success flag, attempts used, end-to-end
latency in milliseconds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

RELAY_BITS = 5
ACK_SLOT_MS = 5.0
BASE_TIMEOUT_MS = 21.0
RETRIES = 3
SW_LATENCY_MS = 2.0
SW_LATENCY_WORST_MS = 8.0
HW_LATENCY_MS = 28.0

# Measured reception rate by distance; linear in between, clamped outside.
PRR_TABLE = {10.0: 1.00, 25.0: 0.98, 50.0: 0.50}


def encode(relay_columns) -> bytes:
    """Pack per-device relay states (5 bools each) into one byte per device."""
    out = bytearray()
    for bits in relay_columns:
        if len(bits) != RELAY_BITS:
            raise ValueError(f"expected {RELAY_BITS} relay bits, got {len(bits)}")
        byte = 0
        for k, bit in enumerate(bits):
            if bit:
                byte |= 1 << k
        out.append(byte)
    return bytes(out)


def decode(frame: bytes, device_id: int) -> tuple[bool, ...]:
    """Relay states addressed to `device_id` (1-based position in frame)."""
    if not 1 <= device_id <= len(frame):
        raise ValueError(f"device id {device_id} outside frame of {len(frame)}")
    byte = frame[device_id - 1]
    if byte >> RELAY_BITS:
        raise ValueError("non-zero padding bits")
    return tuple(bool(byte & (1 << k)) for k in range(RELAY_BITS))


def ack_slot(device_id: int) -> float:
    """Start of the device's acknowledgment slot, ms after the command."""
    if device_id < 1:
        raise ValueError("device ids are 1-based")
    return (device_id - 1) * ACK_SLOT_MS


# Device draw in watts: the bridge device (MBD, one per home) and the
# switching device (SBD, one per room) when active; either when shed.
MBD_ACTIVE_W = 0.36
SBD_ACTIVE_W = 0.40
SHED_W = 0.10


@dataclass(frozen=True)
class LinkModel:
    prr_by_distance: dict[float, float] = field(
        default_factory=lambda: dict(PRR_TABLE)
    )

    def prr_at(self, distance_m: float) -> float:
        xs = sorted(self.prr_by_distance)
        ys = [self.prr_by_distance[x] for x in xs]
        return float(np.interp(distance_m, xs, ys))

    def delivery_probability(self, distance_m: float) -> float:
        """Chance a command lands within the retry budget (command and ack
        each independently survive with probability prr)."""
        p = self.prr_at(distance_m) ** 2
        return 1.0 - (1.0 - p) ** (1 + RETRIES)


@dataclass
class DeliveryResult:
    delivered: bool
    attempts: int
    latency_ms: float


def attempt_timeout_ms(frame_devices: int) -> float:
    """Wait before a retry: the nominal timeout, stretched when the ack
    schedule of a large frame would not fit inside it."""
    return max(BASE_TIMEOUT_MS, frame_devices * ACK_SLOT_MS)


def deliver(
    frame: bytes,
    link: LinkModel,
    distance_m: float,
    rng: np.random.Generator,
    worst_case: bool = False,
) -> DeliveryResult:
    """Send one frame through the lossy link, retrying on silence."""
    if len(frame) == 0:
        raise ValueError("empty frame")
    p = link.prr_at(distance_m) ** 2
    timeout = attempt_timeout_ms(len(frame))
    sw = SW_LATENCY_WORST_MS if worst_case else SW_LATENCY_MS
    elapsed = 0.0
    for attempt in range(1, RETRIES + 2):
        if rng.random() < p:
            return DeliveryResult(True, attempt, elapsed + sw + HW_LATENCY_MS)
        elapsed += timeout
    return DeliveryResult(False, RETRIES + 1, elapsed)


def overhead_power(rooms: int, shed: bool = False) -> float:
    """Control-plane draw of one home: a bridge plus one device per room."""
    if rooms < 1:
        raise ValueError("need at least one room")
    if shed:
        return (rooms + 1) * SHED_W
    return rooms * SBD_ACTIVE_W + MBD_ACTIVE_W


# Fewest delivery uniforms a lossy channel draws from its stream at once.
DRAW_BLOCK = 1024


class CommandChannel:
    """Applies power-state commands to homes.

    Each command lands with probability `delivery_p`: it takes the next
    uniform of `rng`, a stream only the channel draws from, and lands if
    that is below `delivery_p`. Buffered uniforms, topped up with
    `rng.random(max(DRAW_BLOCK, short))`, are the values of one
    `rng.random()` per command, though `rng` may run ahead of the last one
    used. A lost command leaves the home's state unchanged. A channel that
    always delivers draws no random number, and its `rng` may be None.
    Delivery is instantaneous at the 1 s round granularity (command latency
    is tens of milliseconds).
    """

    def __init__(self, delivery_p: float, rng: np.random.Generator | None):
        self.sent = 0
        self.lost = 0
        self._p = delivery_p if delivery_p < 1.0 else None
        self._rng = rng
        self._buffer: deque[float] = deque()

    def landing(self, n: int) -> np.ndarray | None:
        """Whether each of the next n commands would land, None if all will;
        consumes nothing."""
        if self._p is None:
            return None
        if len(self._buffer) < n:
            self._buffer.extend(self._rng.random(max(DRAW_BLOCK, n - len(self._buffer))).tolist())
        return np.fromiter(islice(self._buffer, n), float, n) < self._p

    def apply(self, home, level) -> bool:
        """Send one command: set `home` (a `homes.Home`, which a sender may
        re-point after the call) to `level` unless the command is lost, by
        writing the home's entry of its fleet's level array; returns
        whether the command landed."""
        self.sent += 1
        if self._p is not None:
            if not self._buffer:
                self.landing(1)
            if self._buffer.popleft() >= self._p:
                self.lost += 1
                return False
        home.fleet.level[home.id] = level
        return True
