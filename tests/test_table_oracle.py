"""The float-list satellite tables and the closed-form trend fit against
the numpy code they replaced.

The oracles below are that code: the constructors that converted every
column with ``numpy.asarray`` and checked the arrays, and the
``numpy.linalg.lstsq`` line fit. The list constructors must accept and
reject the same inputs, with the same error text, and hold the same
floats; the closed-form fit must agree with ``lstsq`` within 1e-9 Hz.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from bfokit.errors import DomainError
from bfokit.satellite import GEO_RADIUS_M, GEO_SHELL_HALF_WIDTH_M, CorrectionTable, EphemerisTable
from bfokit.stats import BfoMeasurement, Channel, MessageType
from bfokit.trend import fit_linear_trend


# --- oracles -------------------------------------------------------------------

def _float_array(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as e:  # ragged rows or non-numbers
        raise DomainError(f"{what} must be numbers in rows of equal length") from e


def oracle_ephemeris(times, positions, velocities):
    """(time_list, row_list) as the numpy constructor built them."""
    times = _float_array(times, "ephemeris times")
    positions = _float_array(positions, "ephemeris positions")
    velocities = _float_array(velocities, "ephemeris velocities")
    if times.ndim != 1:
        raise DomainError(f"ephemeris times must be one-dimensional, got shape {times.shape}")
    n = len(times)
    if n < 2:
        raise DomainError("ephemeris table needs at least 2 rows")
    for what, rows in (("positions", positions), ("velocities", velocities)):
        if rows.shape != (n, 3):
            raise DomainError(f"ephemeris {what} must have shape ({n}, 3), got {rows.shape}")
    if not np.all(np.diff(times) > 0):
        raise DomainError("ephemeris timestamps must be strictly increasing")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(positions)) and np.all(np.isfinite(velocities))):
        raise DomainError("ephemeris rows must be finite")
    radii = np.linalg.norm(positions, axis=1)
    if np.any(np.abs(radii - GEO_RADIUS_M) > GEO_SHELL_HALF_WIDTH_M):
        raise DomainError("ephemeris positions outside the geosynchronous shell")
    return times.tolist(), np.hstack([positions, velocities]).tolist()


def oracle_corrections(times, values):
    """(time_list, value_list) as the numpy constructor built them."""
    times = _float_array(times, "correction times")
    values = _float_array(values, "correction values")
    if times.ndim != 1 or values.ndim != 1:
        raise DomainError(
            "correction times and values must be one-dimensional, "
            f"got shapes {times.shape} and {values.shape}"
        )
    if len(times) != len(values) or len(times) < 1:
        raise DomainError("correction table needs matching, non-empty columns")
    if len(times) > 1 and not np.all(np.diff(times) > 0):
        raise DomainError("correction timestamps must be strictly increasing")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise DomainError("correction rows must be finite")
    return times.tolist(), values.tolist()


def oracle_trend(times, bfos, t0):
    """(slope, intercept, rms) from ``lstsq`` on uncentred hours."""
    hours = (np.asarray(times) - t0) / 3600.0
    bfos = np.asarray(bfos)
    design = np.column_stack([hours, np.ones_like(hours)])
    coeffs, *_ = np.linalg.lstsq(design, bfos, rcond=None)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    residuals = bfos - (slope * hours + intercept)
    return slope, intercept, float(np.sqrt(np.mean(residuals**2)))


def outcome(build):
    """What ``build()`` returns, or the type and text of what it raises."""
    try:
        return "ok", build()
    except Exception as e:  # compared, never swallowed: both sides must match
        return type(e).__name__, str(e)


# --- generated inputs ----------------------------------------------------------

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
H = GEO_SHELL_HALF_WIDTH_M


def one_in(k):
    return st.integers(1, k).map(lambda i: i == 1)


@st.composite
def time_column(draw, max_rows=6):
    """Increasing times; one column in four has a zero or negative step."""
    n = draw(st.integers(0, max_rows))
    steps = [draw(st.floats(1e-3, 1e5)) for _ in range(n - 1)]
    if steps and draw(one_in(4)):
        steps[draw(st.integers(0, len(steps) - 1))] = -draw(st.sampled_from([0.0, 1e-3, 1.0, 1e5]))
    times = [draw(st.floats(-1e9, 2e9))] if n else []
    for step in steps:
        times.append(times[-1] + step)
    return times


@st.composite
def shell_rows(draw, n):
    """``n`` positions on the geosynchronous shell; in one column in four,
    one row lies off it, by more than the rounding of a norm."""
    offsets = [draw(st.floats(-0.999 * H, 0.999 * H)) for _ in range(n)]
    if n and draw(one_in(4)):
        off = draw(st.one_of(st.floats(1.001 * H, 3 * H), st.floats(3 * H, 1e9)))
        offsets[draw(st.integers(0, n - 1))] = max(-GEO_RADIUS_M, draw(st.sampled_from([-1, 1])) * off)
    rows = []
    for offset in offsets:
        lat, lon = math.radians(draw(st.floats(-90, 90))), math.radians(draw(st.floats(-180, 180)))
        r = GEO_RADIUS_M + offset
        rows.append([r * math.cos(lat) * math.cos(lon), r * math.cos(lat) * math.sin(lon), r * math.sin(lat)])
    return rows


FAULTS = ["none"] * 16 + ["ints", "special", "special", "special", "drop", "extra", "wrap", "flat", "ragged", "deep"]


@st.composite
def damaged(draw, rows):
    """``rows`` (floats, or rows of three floats), often as given; else with
    every cell made an int, one cell made non-finite, or the shape changed."""
    fault = draw(st.sampled_from(FAULTS))
    nested = bool(rows) and isinstance(rows[0], list)
    if fault == "ints":
        return [[int(x) for x in row] for row in rows] if nested else [int(x) for x in rows]
    if fault == "special" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows = [list(row) for row in rows] if nested else list(rows)
        if nested:
            rows[i][draw(st.integers(0, 2))] = draw(SPECIAL)
        else:
            rows[i] = draw(SPECIAL)
    elif fault == "drop" and rows:
        rows = rows[:-1]
    elif fault == "extra" and rows:
        rows = rows + [rows[-1]]
    elif fault == "wrap":
        rows = [rows]
    elif fault == "flat" and nested:
        rows = [x for row in rows for x in row]
    elif fault == "ragged" and nested:
        rows = rows[:-1] + [rows[-1][:-1]]
    elif fault == "deep":
        rows = [[[x] for x in row] for row in rows] if nested else [[x] for x in rows]
    return rows


@st.composite
def container(draw, rows):
    """``rows`` as lists, tuples, one numpy array, or a list of numpy rows."""
    kind = draw(st.sampled_from(["list", "tuple", "array", "array_rows"]))
    if kind == "tuple":
        return tuple(tuple(r) if isinstance(r, list) else r for r in rows)
    if kind == "array":
        try:
            return np.array(rows)
        except ValueError:  # ragged: numpy will not build it, so pass the lists
            return rows
    if kind == "array_rows":
        return [np.array(r) if isinstance(r, list) else r for r in rows]
    return rows


@st.composite
def ephemeris_args(draw):
    times = draw(time_column())
    positions = draw(shell_rows(len(times)))
    velocities = [draw(st.lists(st.floats(-5e3, 5e3), min_size=3, max_size=3)) for _ in times]
    return tuple(draw(container(draw(damaged(col)))) for col in (times, positions, velocities))


@st.composite
def correction_args(draw):
    times = draw(time_column(max_rows=4))
    values = draw(st.lists(st.floats(-1e4, 1e4), min_size=len(times), max_size=len(times)))
    return tuple(draw(container(draw(damaged(col)))) for col in (times, values))


# --- tables --------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(ephemeris_args())
def test_ephemeris_table_matches_numpy_constructor(args):
    def build():
        table = EphemerisTable(*args)
        return table.time_list, table.row_list

    got = outcome(build)
    event(got[0] if got[0] == "ok" else got[1].split(",")[0])
    assert got == outcome(lambda: oracle_ephemeris(*args))


@settings(max_examples=200, deadline=None)
@given(correction_args())
def test_correction_table_matches_numpy_constructor(args):
    def build():
        table = CorrectionTable(*args)
        return table.time_list, table.value_list

    got = outcome(build)
    event(got[0] if got[0] == "ok" else got[1].split(",")[0])
    assert got == outcome(lambda: oracle_corrections(*args))


@pytest.mark.parametrize("times, values", [
    ([5.0], [1.5]),
    ((7,), (2,)),
    (np.array([3.0]), np.array([-4.0])),
    ([math.nan], [1.0]),
    ([0.0], [math.inf]),
    ([0.0], []),
    ([[0.0]], [1.0]),
])
def test_one_row_correction_tables(times, values):
    def build():
        table = CorrectionTable(times, values)
        return table.time_list, table.value_list

    assert outcome(build) == outcome(lambda: oracle_corrections(times, values))


def test_array_views_equal_the_lists():
    eph = EphemerisTable([0.0, 600], [(GEO_RADIUS_M, 0, 0), (0, GEO_RADIUS_M, 0)], np.ones((2, 3)))
    assert eph.times.tolist() == eph.time_list
    assert np.hstack([eph.positions, eph.velocities]).tolist() == eph.row_list
    assert eph.times is eph.times  # built once


# --- trend ---------------------------------------------------------------------

def burst(t, bfo):
    return BfoMeasurement(float(t), Channel.R, MessageType.DATA, float(bfo), cn0_dbhz=41.7)


@settings(max_examples=150, deadline=None)
@given(
    start=st.floats(1.3e9, 1.5e9),
    hours=st.floats(0.1, 12.0),
    offsets=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=60),
    line=st.tuples(st.floats(-300.0, 300.0), st.floats(-60.0, 60.0)),
    noise=st.lists(st.floats(-30.0, 30.0), min_size=60, max_size=60),
)
def test_trend_matches_lstsq(start, hours, offsets, line, noise):
    t0, t1 = start, start + hours * 3600.0
    times = sorted({t for t in (round(t0 + f * (t1 - t0)) for f in offsets) if t0 <= t <= t1})
    assume(len(times) >= 2)
    intercept, slope = line
    bfos = [intercept + slope * (t - t0) / 3600.0 + e for t, e in zip(times, noise)]
    model = fit_linear_trend([burst(t, b) for t, b in zip(times, bfos)], (t0, t1))
    want_slope, want_intercept, want_rms = oracle_trend(times, bfos, t0)
    # Over the data the two lines agree in Hz. Times a second apart make the
    # slope and the intercept ill-conditioned for both fits alike, so those
    # two are compared relative to their size.
    for t in times:
        assert model.value_at(t) == pytest.approx(want_intercept + want_slope * (t - t0) / 3600.0, abs=1e-9)
    assert model.residual_rms_hz == pytest.approx(want_rms, abs=1e-9)
    assert model.slope_hz_per_hour == pytest.approx(want_slope, rel=1e-9, abs=1e-9)
    assert model.intercept_hz == pytest.approx(want_intercept, rel=1e-9, abs=1e-9)
