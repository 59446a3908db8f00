"""Protocol, world and attack parameters shared across the simulator.

Everything an operator might tune lives here with its default, and nowhere
else: functions take the ``SimParams`` (or ``AttackSpec``) they need rather
than re-declaring a default.  Scenario configs override fields by name.
Values are validated once at construction by ``as_number``, the one rule for
an int or float taken from outside the program (scenario files and uploads
use it too), so the tick loop never has to re-check them.  ``FrozenRecord``,
the base of ``SimParams`` and the package's other immutable ``__slots__``
records, lives here too, as every other module imports this one.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

SECONDS_PER_DAY = 86400

# Transmit powers an AEM may carry: GAEN's signed-byte range.
TX_POWER_MIN = -127
TX_POWER_MAX = 127

# The widest verification neighborhood, in cells and in buckets either way:
# verifying a contact row rebuilds (2c + 1)**2 * (2b + 1) digests.
NEIGHBORHOOD_MAX = 8


def as_number(kind: type, value, what: str, error: type[Exception] = ValueError):
    """``value`` as ``kind``, or ``error`` naming ``what``: an ``int`` takes
    only an integer, a ``float`` an integer or a finite float; never a
    boolean or a string."""
    if kind is int:
        if type(value) is not int:
            raise error(f"{what} must be an integer, got {value!r}")
        return value
    if type(value) not in (int, float):
        raise error(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, an infinity or too large an integer
        raise error(f"{what} must be finite, got {value!r}")
    return float(value)


class FrozenRecord:
    """Base of the immutable ``__slots__`` records: equality, hashing and
    repr go by the fields, which are the subclass's ``__slots__`` in order.
    A subclass's ``__init__`` stores its fields with ``_set`` and checks
    them; no field can be assigned or deleted otherwise."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __getstate__(self) -> tuple:  # copy and pickle store the fields with _set
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SimParams(FrozenRecord):
    """Tunable knobs for one simulation run.

    The defaults encode the protocol as simulated: 2-hour pseudonym
    rotation, one advertisement per 10 s tick, a 10 m radio range with a
    log-distance path-loss model, step-function risk weights, and a
    0.001 degree / 300 s quantization grid for contact hashing.

    ``DEFAULTS`` names every field, in order, with its default; a field
    takes the type of its default (``as_number``), and a value is stored
    as it was passed, so an int given for a float field stays an int.
    """

    DEFAULTS = {
        # pseudonym schedule
        "rotation_seconds": 7200,
        "tek_retention_days": 14,
        "clock_tolerance_seconds": 0,
        # radio
        "tick_seconds": 10,
        "tx_power_dbm": -20,
        "ble_range_m": 10.0,
        "path_loss_ref_db": 40.0,
        "path_loss_per_decade_db": 20.0,
        "min_path_distance_m": 0.1,
        # risk scoring
        "attenuation_threshold_db": 60.0,
        "alert_threshold_minutes": 10.0,
        # contact-hash quantization and verification neighborhood
        "cell_size_deg": 0.001,
        "bucket_seconds": 300,
        "neighborhood_cells": 1,
        "neighborhood_buckets": 1,
        # backend
        "otp_ttl_seconds": 3600,
    }
    __slots__ = tuple(DEFAULTS)

    def __init__(self, **values) -> None:
        unknown = values.keys() - self.DEFAULTS.keys()
        if unknown:
            raise TypeError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
        values = {**self.DEFAULTS, **values}  # in field order
        for name, default in self.DEFAULTS.items():
            as_number(type(default), values[name], name)
        self._set(*values.values())
        if self.rotation_seconds <= 0 or SECONDS_PER_DAY % self.rotation_seconds:
            raise ValueError(
                f"rotation_seconds must divide a day evenly, got {self.rotation_seconds}"
            )
        if self.bucket_seconds <= 0 or SECONDS_PER_DAY % self.bucket_seconds:
            raise ValueError(
                f"bucket_seconds must divide a day evenly, got {self.bucket_seconds}"
            )
        for name in ("tick_seconds", "cell_size_deg", "ble_range_m", "min_path_distance_m",
                     "tek_retention_days"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("clock_tolerance_seconds", "otp_ttl_seconds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        if not TX_POWER_MIN <= self.tx_power_dbm <= TX_POWER_MAX:
            raise ValueError(
                f"tx_power_dbm must be in [{TX_POWER_MIN}, {TX_POWER_MAX}], got {self.tx_power_dbm}"
            )
        for name in ("neighborhood_cells", "neighborhood_buckets"):
            if not 0 <= getattr(self, name) <= NEIGHBORHOOD_MAX:
                raise ValueError(
                    f"{name} must be in [0, {NEIGHBORHOOD_MAX}], got {getattr(self, name)}"
                )
        # Every cell index, widened by the neighborhood, must fit a digest's int64.
        reach = 180 / self.cell_size_deg
        if not (reach < 2**63 and math.ceil(reach) + self.neighborhood_cells < 2**63):
            raise ValueError(f"cell_size_deg must exceed 180 / 2**63, got {self.cell_size_deg!r}")

    @property
    def intervals_per_day(self) -> int:
        return SECONDS_PER_DAY // self.rotation_seconds


class AttackSpec(NamedTuple):
    """A capture is replayed from ``relay_delay`` until ``replay_ttl``
    seconds after it was made."""

    relay_delay: int = 0
    replay_ttl: int = 7200
