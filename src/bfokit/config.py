"""Analysis configuration: file paths, channel constants and defaults.

Config files are JSON. Relative paths resolve against the config file's
directory, so the bundled fixture config works from anywhere. The
``BFOKIT_CONFIG`` environment variable supplies the default config path.
"""

from __future__ import annotations

import json
import os
from datetime import date
from pathlib import Path
from typing import NamedTuple

from .bfo_model import ChannelConfig
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
from .stats import NoiseBounds

CONFIG_ENV_VAR = "BFOKIT_CONFIG"


class AnalysisConfig(NamedTuple):
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


def _number(value, name, base) -> float:
    """``value``, a JSON number that is finite as a float; a bool is not a number."""
    if not _finite_number(value):
        raise ConfigError(f"{name}: {value!r} is not a finite number")
    return float(value)


def _text(value, name, base) -> str:
    """``value``, which must be a JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"{name}: {value!r} is not a string")
    return value


def _date(value, name, base) -> date:
    """``value``, a ``YYYY-MM-DD`` text; ``date.fromisoformat`` reads more forms on Python 3.11 and later."""
    text = _text(value, name, base)
    digits = text[:4] + text[5:7] + text[8:]
    if not (len(text) == 10 and text[4] == text[7] == "-" and digits.isascii() and digits.isdigit()):
        raise ConfigError(f"{name}: {text!r} is not a YYYY-MM-DD date")
    try:
        return date.fromisoformat(text)
    except ValueError as e:  # a month or day out of range
        raise ConfigError(f"{name}: {text!r} is not a date: {e}") from e


def _file(value, name, base) -> Path:
    """The existing regular file that ``value`` names."""
    p = base / _text(value, name, base)
    if not p.exists():
        raise ConfigError(f"{name}: file {p} does not exist")
    if not p.is_file():
        raise ConfigError(f"{name}: {p} is not a regular file")
    return p


def parse_window(texts, reference, name) -> tuple[float, float]:
    """Two time texts as a window of UTC seconds; a bad time, or an end not after the start, is refused by name."""
    try:
        start, end = (parse_time_utc(text, reference) for text in texts)
    except DomainError as e:
        raise ConfigError(f"{name}: {e}") from e
    if end <= start:
        raise ConfigError(f"{name} out of order")
    return start, end


def _window(value, name, base) -> list[str]:
    """``value``, a list of two time texts; they are parsed once the reference date is known."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name}: {value!r} is not a list of two times")
    return [_text(v, f"{name}[{i}]", base) for i, v in enumerate(value)]


REQUIRED = object()  # the default of a key the config must hold
_POSITION = {"lat": (_number, REQUIRED), "lon": (_number, REQUIRED), "alt": (_number, 0.0)}
_CHANNEL = ChannelConfig()

# Every config key: {key: (reader, default)}. A reader takes a value, its key
# path and the directory that relative file paths resolve against; a nested
# table reads an object. A default is written as the config would write it
# and is read like one; REQUIRED marks a key the config must hold, None one
# it may leave out.
SCHEMA = {
    "reference_date": (_date, REQUIRED),
    "log_csv": (_file, REQUIRED),
    "ephemeris_csv": (_file, REQUIRED),
    "correction_csv": (_file, REQUIRED),
    "logon_sequence_csv": (_file, REQUIRED),
    "logon_meta_json": (_file, None),
    "channel": ({
        "uplink_hz": (_number, _CHANNEL.uplink_hz),
        "downlink_hz": (_number, _CHANNEL.downlink_hz),
        "ges": (_POSITION, dict(zip(_POSITION, _CHANNEL.ges_position))),
    }, {}),
    "nominal_slot": ({key: (_number, value) for key, value in NominalSlot()._asdict().items()}, {}),
    # Strict BFO error bounds over the 20 reference flights (Ashton et al. 2015).
    "noise_bounds": (
        {"lower_hz": (_number, REQUIRED), "upper_hz": (_number, REQUIRED)},
        {"lower_hz": -28.0, "upper_hz": 18.0},
    ),
    "expected_bfo": ({"south_hz": (_number, 260.0), "north_hz": (_number, 280.0)}, {}),
    "arc_crossing": (_POSITION, REQUIRED),
    "tarmac": (_POSITION, None),
    "fit_window": (_window, REQUIRED),
    "bias_hz": (_number, 0.0),
    "sensitivity_hz_per_100fpm": (_number, 1.7),
}


def _read(obj, table, path, base) -> dict:
    """The values of config object ``obj``, named by ``path``, read against
    ``table``. A key the table does not name is refused, so a misspelled key
    cannot fall back to its default; a key set to null reads as if it were
    left out; a nested table reads into a dict."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: {obj!r} is not an object")
    prefix = f"{path}." if path else ""
    for key in obj:
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown config key")
    values = {}
    for key, (reader, default) in table.items():
        name = prefix + key
        value = default if obj.get(key) is None else obj[key]
        if value is REQUIRED:
            raise ConfigError(f"config is missing {name!r}")
        if value is not None:
            value = _read(value, reader, name, base) if isinstance(reader, dict) else reader(value, name, base)
        values[key] = value
    return values


def _position(values, name) -> GeodeticPosition:
    try:
        return GeodeticPosition(values["lat"], values["lon"], values["alt"])
    except DomainError as e:
        raise ConfigError(f"bad {name} position: {e}") from e


def load_config(path=None) -> AnalysisConfig:
    """Load and validate an analysis config against :data:`SCHEMA`.

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
    except (UnicodeDecodeError, json.JSONDecodeError) as e:  # JSON text is UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} is not a JSON object")

    try:
        v = _read(raw, SCHEMA, "", path.parent)
        reference, channel, expected = v["reference_date"], v["channel"], v["expected_bfo"]
        window = parse_window(v["fit_window"], reference, "fit_window")
        return AnalysisConfig(
            log_csv=v["log_csv"],
            ephemeris_csv=v["ephemeris_csv"],
            correction_csv=v["correction_csv"],
            logon_sequence_csv=v["logon_sequence_csv"],
            logon_meta_json=v["logon_meta_json"],
            channel=ChannelConfig(
                channel["uplink_hz"], channel["downlink_hz"], _position(channel["ges"], "channel.ges")
            ),
            slot=NominalSlot(**v["nominal_slot"]),
            noise=NoiseBounds(**v["noise_bounds"]),
            expected_south_hz=expected["south_hz"],
            expected_north_hz=expected["north_hz"],
            arc_crossing=_position(v["arc_crossing"], "arc_crossing"),
            fit_window=window,
            bias_hz=v["bias_hz"],
            reference_date=reference,
            tarmac=None if v["tarmac"] is None else _position(v["tarmac"], "tarmac"),
            sensitivity_hz_per_100fpm=v["sensitivity_hz_per_100fpm"],
        )
    except ConfigError:
        raise
    except ValueError as e:  # a bad date or time, or a DomainError of a built value
        raise ConfigError(f"config file {path}: {e}") from e
