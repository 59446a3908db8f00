"""Protocol, world and attack parameters shared across the simulator.

Everything an operator might tune lives here with its default, and nowhere
else: functions take the ``SimParams`` (or ``AttackSpec``) they need rather
than re-declaring a default.  Scenario configs override fields by name.
Values are validated once at construction (an int field takes only an int,
a float field any finite number) so the tick loop never has to re-check
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

SECONDS_PER_DAY = 86400

# Transmit powers an AEM may carry: GAEN's signed-byte range.
TX_POWER_MIN = -127
TX_POWER_MAX = 127


@dataclass(frozen=True)
class SimParams:
    """Tunable knobs for one simulation run.

    The defaults encode the protocol as simulated: 2-hour pseudonym
    rotation, one advertisement per 10 s tick, a 10 m radio range with a
    log-distance path-loss model, step-function risk weights, and a
    0.001 degree / 300 s quantization grid for contact hashing.
    """

    # pseudonym schedule
    rotation_seconds: int = 7200
    tek_retention_days: int = 14
    clock_tolerance_seconds: int = 0

    # radio
    tick_seconds: int = 10
    tx_power_dbm: int = -20
    ble_range_m: float = 10.0
    path_loss_ref_db: float = 40.0
    path_loss_per_decade_db: float = 20.0
    min_path_distance_m: float = 0.1

    # risk scoring
    attenuation_threshold_db: float = 60.0
    alert_threshold_minutes: float = 10.0

    # contact-hash quantization and verification neighborhood
    cell_size_deg: float = 0.001
    bucket_seconds: int = 300
    neighborhood_cells: int = 1
    neighborhood_buckets: int = 1

    # backend
    otp_ttl_seconds: int = 3600

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if type(value) is not int:
                    raise TypeError(f"{f.name} must be an integer, got {value!r}")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{f.name} must be a number, got {value!r}")
            elif not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.rotation_seconds <= 0 or SECONDS_PER_DAY % self.rotation_seconds:
            raise ValueError(
                f"rotation_seconds must divide a day evenly, got {self.rotation_seconds}"
            )
        if self.bucket_seconds <= 0 or SECONDS_PER_DAY % self.bucket_seconds:
            raise ValueError(
                f"bucket_seconds must divide a day evenly, got {self.bucket_seconds}"
            )
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if not TX_POWER_MIN <= self.tx_power_dbm <= TX_POWER_MAX:
            raise ValueError(
                f"tx_power_dbm must be in [{TX_POWER_MIN}, {TX_POWER_MAX}], got {self.tx_power_dbm}"
            )
        if self.cell_size_deg <= 0:
            raise ValueError("cell_size_deg must be positive")
        if self.ble_range_m <= 0:
            raise ValueError("ble_range_m must be positive")
        if self.tek_retention_days <= 0:
            raise ValueError("tek_retention_days must be positive")
        if self.neighborhood_cells < 0:
            raise ValueError("neighborhood_cells must be >= 0")
        if self.neighborhood_buckets < 0:
            raise ValueError("neighborhood_buckets must be >= 0")

    @property
    def intervals_per_day(self) -> int:
        return SECONDS_PER_DAY // self.rotation_seconds

    @classmethod
    def from_dict(cls, overrides: dict) -> "SimParams":
        """Build params from a config mapping, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
        return cls(**overrides)


@dataclass(frozen=True)
class AttackSpec:
    """A capture is replayed from ``relay_delay`` until ``replay_ttl``
    seconds after it was made."""

    relay_delay: int = 0
    replay_ttl: int = 7200
