import pytest

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
        errors = [e for _, e in curve]
        assert max(errors) - min(errors) < 1e-9

    def test_periodic(self, analysis_config, ephemeris, corrections):
        curve = sweep_fixture(analysis_config, ephemeris, corrections)
        assert curve[0][0] == 0.0 and curve[-1][0] == 360.0
        assert curve[0][1] == pytest.approx(curve[-1][1], abs=1e-12)

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
        errors = [e for _, e in curve]
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
            worst = max(abs(a[1] - b[1]) for a, b in zip(base, shifted))
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
        curve = sweep_fixture(analysis_config, ephemeris, corrections)
        angle = min(curve, key=lambda p: p[1])[0]
        assert 135.0 <= angle <= 225.0


class TestTrackOffset:
    def test_sector_extrema_on_monotone_curve(self):
        curve = [(a, float(a)) for a in range(0, 361)]
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
        mean = sum(e for a, e in curve[:-1]) / (len(curve) - 1)
        spread = north - south
        assert spread > 1.0
        assert (north - mean) + (south - mean) == pytest.approx(0.0, abs=0.02 * spread)

    def test_empty_curve_rejected(self):
        with pytest.raises(DomainError):
            track_offset([], TrackSector.SOUTH)
