"""Analysis configuration: file paths, channel constants and defaults.

Config files are JSON. Relative paths resolve against the config file's
directory, so the bundled fixture config works from anywhere. The
``BFOKIT_CONFIG`` environment variable supplies the default config path.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from datetime import date
from pathlib import Path

from .bfo_model import ChannelConfig
from .descent import DEFAULT_EXPECTED_NORTH_HZ, DEFAULT_EXPECTED_SOUTH_HZ, DEFAULT_SENSITIVITY_HZ_PER_100FPM
from .errors import ConfigError, DomainError
from .geodesy import GeodeticPosition
from .ingest import (
    _finite_number,
    load_correction_csv,
    load_ephemeris_csv,
    load_log_csv,
    load_logon_csv,
    parse_time_utc,
)
from .satellite import NominalSlot
from .stats import DEFAULT_NOISE_BOUNDS, NoiseBounds

CONFIG_ENV_VAR = "BFOKIT_CONFIG"

_POSITION_KEYS = dict.fromkeys(("lat", "lon", "alt"))
# Every key load_config reads; a key whose value is an object maps to that object's keys.
CONFIG_KEYS = {
    **dict.fromkeys(("reference_date", "log_csv", "ephemeris_csv", "correction_csv", "logon_sequence_csv",
                     "logon_meta_json", "fit_window", "bias_hz", "sensitivity_hz_per_100fpm")),
    "channel": {"uplink_hz": None, "downlink_hz": None, "ges": _POSITION_KEYS},
    "nominal_slot": dict.fromkeys(("longitude_deg", "latitude_deg", "radius_m")),
    "noise_bounds": dict.fromkeys(("lower_hz", "upper_hz")),
    "expected_bfo": dict.fromkeys(("south_hz", "north_hz")),
    "arc_crossing": _POSITION_KEYS,
    "tarmac": _POSITION_KEYS,
}


@dataclass(frozen=True)
class AnalysisConfig:
    log_csv: Path
    ephemeris_csv: Path
    correction_csv: Path
    logon_sequence_csv: Path
    logon_meta_json: Path | None
    channel: ChannelConfig
    slot: NominalSlot
    noise: NoiseBounds
    expected_south_hz: float
    expected_north_hz: float
    arc_crossing: GeodeticPosition
    fit_window: tuple[float, float]
    bias_hz: float
    reference_date: date
    tarmac: GeodeticPosition | None
    sensitivity_hz_per_100fpm: float

    def load_log(self):
        return load_log_csv(self.log_csv)

    def load_ephemeris(self):
        return load_ephemeris_csv(self.ephemeris_csv)

    def load_corrections(self):
        return load_correction_csv(self.correction_csv)

    def load_logon_sequences(self):
        return load_logon_csv(self.logon_sequence_csv, self.logon_meta_json)

    def parse_time(self, text: str) -> float:
        return parse_time_utc(text, self.reference_date)


def _number(obj, key, default, path) -> float:
    """``obj[key]`` as a float, or ``default`` when the key is absent (a
    ``default`` of None makes it required). It must be a JSON number that
    is finite as a float; a bool is not a number. ``path`` names ``obj``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: {obj!r} is not an object")
    value = obj[key] if default is None else obj.get(key, default)
    if not _finite_number(value):
        name = f"{path}.{key}" if path else key
        raise ConfigError(f"{name}: {value!r} is not a finite number")
    return float(value)


def _check_keys(obj, keys, path="") -> None:
    """Refuse any key of ``obj`` that ``keys`` does not name, so a misspelled
    key cannot fall back to its default. ``path`` names ``obj``."""
    if not isinstance(obj, dict):
        return  # the reader of this value reports a non-object
    for key, value in obj.items():
        name = f"{path}.{key}" if path else key
        if key not in keys:
            raise ConfigError(f"{name}: unknown config key")
        if keys[key] is not None:
            _check_keys(value, keys[key], name)


def _text(value, name) -> str:
    """``value``, which must be a JSON string; ``name`` is its key path."""
    if not isinstance(value, str):
        raise ConfigError(f"{name}: {value!r} is not a string")
    return value


def _position(obj, path) -> GeodeticPosition:
    try:
        return GeodeticPosition(
            _number(obj, "lat", None, path), _number(obj, "lon", None, path), _number(obj, "alt", 0.0, path)
        )
    except (KeyError, DomainError) as e:
        raise ConfigError(f"bad {path} position: {e}") from e


def load_config(path=None) -> AnalysisConfig:
    """Load and validate an analysis config.

    ``path`` defaults to the ``BFOKIT_CONFIG`` environment variable.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        raise ConfigError(f"no config path given and {CONFIG_ENV_VAR} is not set")
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    _check_keys(raw, CONFIG_KEYS)

    base = path.parent

    def file_path(key, required=True):
        value = raw.get(key)
        if value is None:
            if required:
                raise ConfigError(f"config is missing {key!r}")
            return None
        p = base / _text(value, key)
        if not p.exists():
            raise ConfigError(f"{key}: file {p} does not exist")
        return p

    try:
        reference = date.fromisoformat(_text(raw["reference_date"], "reference_date"))
        ch = raw.get("channel", {})
        channel = ChannelConfig(
            uplink_hz=_number(ch, "uplink_hz", ChannelConfig().uplink_hz, "channel"),
            downlink_hz=_number(ch, "downlink_hz", ChannelConfig().downlink_hz, "channel"),
            ges_position=_position(ch["ges"], "channel.ges")
            if "ges" in ch
            else ChannelConfig().ges_position,
        )
        slot_raw, default_slot = raw.get("nominal_slot", {}), NominalSlot()
        slot = NominalSlot(
            longitude_deg=_number(slot_raw, "longitude_deg", default_slot.longitude_deg, "nominal_slot"),
            latitude_deg=_number(slot_raw, "latitude_deg", default_slot.latitude_deg, "nominal_slot"),
            radius_m=_number(slot_raw, "radius_m", default_slot.radius_m, "nominal_slot"),
        )
        nb = raw.get("noise_bounds", asdict(DEFAULT_NOISE_BOUNDS))
        noise = NoiseBounds(
            _number(nb, "lower_hz", None, "noise_bounds"), _number(nb, "upper_hz", None, "noise_bounds")
        )
        expected = raw.get("expected_bfo", {})
        window_raw = raw.get("fit_window")
        if not isinstance(window_raw, list) or len(window_raw) != 2:
            raise ConfigError(f"fit_window: {window_raw!r} is not a list of two times")
        window = tuple(parse_time_utc(_text(w, f"fit_window[{i}]"), reference) for i, w in enumerate(window_raw))
        if window[0] >= window[1]:
            raise ConfigError("fit_window out of order")

        cfg = AnalysisConfig(
            log_csv=file_path("log_csv"),
            ephemeris_csv=file_path("ephemeris_csv"),
            correction_csv=file_path("correction_csv"),
            logon_sequence_csv=file_path("logon_sequence_csv"),
            logon_meta_json=file_path("logon_meta_json", required=False),
            channel=channel,
            slot=slot,
            noise=noise,
            expected_south_hz=_number(expected, "south_hz", DEFAULT_EXPECTED_SOUTH_HZ, "expected_bfo"),
            expected_north_hz=_number(expected, "north_hz", DEFAULT_EXPECTED_NORTH_HZ, "expected_bfo"),
            arc_crossing=_position(raw["arc_crossing"], "arc_crossing"),
            fit_window=window,
            bias_hz=_number(raw, "bias_hz", 0.0, ""),
            reference_date=reference,
            tarmac=_position(raw["tarmac"], "tarmac") if "tarmac" in raw else None,
            sensitivity_hz_per_100fpm=_number(
                raw, "sensitivity_hz_per_100fpm", DEFAULT_SENSITIVITY_HZ_PER_100FPM, ""
            ),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, DomainError) as e:
        raise ConfigError(f"config file {path}: {e}") from e
    return cfg
