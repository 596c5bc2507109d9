"""Access to the bundled synthetic fixture files."""

from importlib.resources import files
from pathlib import Path


def fixture_path(name: str) -> Path:
    p = Path(str(files("bfokit").joinpath("fixtures", name)))
    if not p.exists():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return p


def bundled_config_path() -> Path:
    """Path of the bundled end-to-end analysis config."""
    return fixture_path("mh370_analysis.json")
