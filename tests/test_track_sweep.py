import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bfokit.bfo_model import ChannelConfig
from bfokit.errors import DomainError
from bfokit.geodesy import EcefVector, GeodeticPosition
from bfokit.satellite import (
    CorrectionTable,
    EphemerisTable,
    NominalSlot,
    nominal_satellite_position,
)
from bfokit.track_sweep import (
    KNOTS_TO_MPS,
    TrackSector,
    bfo_error_vs_track,
    peak_to_peak,
    track_offset,
)

CFG = ChannelConfig()
SLOT = NominalSlot()
T0011 = "00:11Z"


def static_nominal_ephemeris(z_offset_m=0.0):
    p = nominal_satellite_position(SLOT) + EcefVector(0.0, 0.0, z_offset_m)
    return EphemerisTable(
        [-86400.0, 86400.0], [p.as_tuple(), p.as_tuple()], [[0, 0, 0], [0, 0, 0]]
    )


def flat_corrections(value=0.0):
    return CorrectionTable([-86400.0, 86400.0], [value, value])


def sweep_fixture(analysis_config, ephemeris, corrections, speed_kts=450.0, **kw):
    return bfo_error_vs_track(
        crossing=kw.pop("crossing", analysis_config.arc_crossing),
        t=analysis_config.parse_time(T0011),
        ground_speed_mps=speed_kts * KNOTS_TO_MPS,
        measured_bfo_hz=252.0,
        ephemeris=ephemeris,
        corrections=corrections,
        bias_hz=analysis_config.bias_hz,
        cfg=analysis_config.channel,
        slot=analysis_config.slot,
        **kw,
    )


class TestCurveShape:
    def test_zero_speed_constant_curve(self):
        curve = bfo_error_vs_track(
            GeodeticPosition(-38.67, 85.11, 0.0),
            0.0,
            0.0,
            100.0,
            static_nominal_ephemeris(z_offset_m=4e5),
            flat_corrections(5.0),
            50.0,
            CFG,
            SLOT,
        )
        _, errors = curve
        assert max(errors) - min(errors) < 1e-9

    def test_periodic(self, analysis_config, ephemeris, corrections):
        tracks, errors = sweep_fixture(analysis_config, ephemeris, corrections)
        assert tracks[0] == 0.0 and tracks[-1] == 360.0
        assert errors[0] == pytest.approx(errors[-1], abs=1e-12)

    def test_satellite_at_nominal_slot_gives_constant_curve(self):
        curve = bfo_error_vs_track(
            GeodeticPosition(-38.67, 85.11, 0.0),
            0.0,
            450.0 * KNOTS_TO_MPS,
            100.0,
            static_nominal_ephemeris(0.0),
            flat_corrections(0.0),
            0.0,
            CFG,
            SLOT,
        )
        _, errors = curve
        assert max(errors) - min(errors) < 1e-9

    def test_crossing_point_insensitivity(self, analysis_config, ephemeris, corrections):
        base = sweep_fixture(analysis_config, ephemeris, corrections)
        for dlat in (-1.0, 1.0):
            shifted = sweep_fixture(
                analysis_config,
                ephemeris,
                corrections,
                crossing=GeodeticPosition(
                    analysis_config.arc_crossing.latitude_deg + dlat,
                    analysis_config.arc_crossing.longitude_deg,
                    analysis_config.arc_crossing.altitude_m,
                ),
            )
            worst = max(abs(a - b) for a, b in zip(base[1], shifted[1]))
            assert worst < 3.0

    def test_step_must_divide_360(self, analysis_config, ephemeris, corrections):
        with pytest.raises(DomainError):
            sweep_fixture(analysis_config, ephemeris, corrections, step_deg=7.0)

    # only steps refused before any array is built: never run a sweep this fine
    @pytest.mark.parametrize("step", [0.0009, 1e-300, 5e-324])
    def test_step_finer_than_a_millidegree_rejected(self, analysis_config, ephemeris, corrections, step):
        with pytest.raises(DomainError, match=f"step_deg {step} gives more than 360,001 points"):
            sweep_fixture(analysis_config, ephemeris, corrections, step_deg=step)

    @pytest.mark.parametrize("speed_kts", [float("nan"), float("inf")])
    def test_non_finite_speed_is_named(self, analysis_config, ephemeris, corrections, speed_kts):
        with pytest.raises(DomainError, match=f"ground_speed_mps {speed_kts} is not finite"):
            sweep_fixture(analysis_config, ephemeris, corrections, speed_kts=speed_kts)


class TestFixtureSweep:
    def test_south_sector_minimum_error(self, analysis_config, ephemeris, corrections):
        curve = sweep_fixture(analysis_config, ephemeris, corrections)
        assert track_offset(curve, TrackSector.SOUTH) == pytest.approx(6.0, abs=2.0)

    def test_peak_to_peak_similar_across_speeds(self, analysis_config, ephemeris, corrections):
        c450 = sweep_fixture(analysis_config, ephemeris, corrections, speed_kts=450.0)
        c500 = sweep_fixture(analysis_config, ephemeris, corrections, speed_kts=500.0)
        ratio = peak_to_peak(c500) / peak_to_peak(c450)
        assert 0.85 <= ratio <= 1.15

    def test_minimum_sits_on_a_southerly_track(self, analysis_config, ephemeris, corrections):
        tracks, errors = sweep_fixture(analysis_config, ephemeris, corrections)
        angle = min(zip(tracks, errors), key=lambda p: p[1])[0]
        assert 135.0 <= angle <= 225.0


class TestTrackOffset:
    def test_sector_extrema_on_monotone_curve(self):
        curve = (list(range(0, 361)), [float(a) for a in range(0, 361)])
        assert track_offset(curve, TrackSector.SOUTH) == 90.0
        assert track_offset(curve, TrackSector.NORTH) == 360.0

    def test_symmetric_geometry_offsets_symmetric_about_mean(self):
        # satellite displaced straight north of the nominal slot with the
        # aircraft on the slot meridian: the curve is A*cos(track) + C
        crossing = GeodeticPosition(-38.67, 64.5, 0.0)
        curve = bfo_error_vs_track(
            crossing,
            0.0,
            450.0 * KNOTS_TO_MPS,
            0.0,
            static_nominal_ephemeris(z_offset_m=1.1e6),
            flat_corrections(0.0),
            0.0,
            CFG,
            SLOT,
        )
        south = track_offset(curve, TrackSector.SOUTH)
        north = track_offset(curve, TrackSector.NORTH)
        mean = sum(curve[1][:-1]) / (len(curve[1]) - 1)
        spread = north - south
        assert spread > 1.0
        assert (north - mean) + (south - mean) == pytest.approx(0.0, abs=0.02 * spread)

    def test_empty_curve_rejected(self):
        with pytest.raises(DomainError):
            track_offset(([], []), TrackSector.SOUTH)


# --- the column extrema against the list-based code they replaced -------------------

def oracle_peak_to_peak(curve):
    errors = [e for _, e in curve]
    if not errors:
        raise DomainError("empty curve")
    return max(errors) - min(errors)


def oracle_track_offset(curve, sector):
    points = list(curve)
    if not points:
        raise DomainError("empty curve")
    if sector is TrackSector.SOUTH:
        sel = [e for a, e in points if 90.0 <= a % 360.0 <= 270.0]
        if not sel:
            raise DomainError("curve has no south-sector points")
        return min(sel)
    sel = [e for a, e in points if a % 360.0 <= 90.0 or a % 360.0 >= 270.0]
    if not sel:
        raise DomainError("curve has no north-sector points")
    return max(sel)


def outcome(f, *args):
    """The repr of the value, which tells -0.0 from 0.0, or the type and text of a DomainError."""
    try:
        return repr(f(*args))
    except DomainError as e:
        return DomainError, str(e)


# The sector edges, exactly and a rounding away, whole turns either side, and angles that % 360 rounds to 360.
EDGES = [0.0, -0.0, 90.0, 270.0, 360.0, -90.0, -270.0, -360.0, 450.0, 630.0, 720.0, 89.99999999999999,
         270.00000000000006, -1e-14, -5e-324, 1e300]
angles = st.sampled_from(EDGES) | st.floats(-1e4, 1e4) | st.floats(allow_nan=False, allow_infinity=False)
errors = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-1e300, 1e300)


@given(curve=st.lists(st.tuples(angles, errors), max_size=40), as_arrays=st.booleans())
@example(curve=[], as_arrays=False)
@example(curve=[(180.0, 1.0), (-180.0, 2.0)], as_arrays=False)  # south only
@example(curve=[(0.0, 1.0), (-0.0, 2.0), (300.0, 3.0)], as_arrays=True)  # north only
@example(curve=[(90.0, 0.0), (270.0, -0.0), (360.0, -0.0), (0.0, 0.0)], as_arrays=False)  # signed-zero ties
def test_column_extrema_match_the_list_based_oracle(curve, as_arrays):
    columns = ([a for a, _ in curve], [e for _, e in curve])
    if as_arrays:
        columns = tuple(map(np.array, columns))
    for sector in TrackSector:
        assert outcome(track_offset, columns, sector) == outcome(oracle_track_offset, curve, sector)
    assert outcome(peak_to_peak, columns) == outcome(oracle_peak_to_peak, curve)
