import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfokit.errors import DomainError
from bfokit.ingest import parse_time_utc
from bfokit.stats import BfoMeasurement, Channel, MessageType
from bfokit.track_sweep import KNOTS_TO_MPS, TrackSector, bfo_error_vs_track, track_offset
from bfokit.trend import extrapolate, fit_linear_trend


def burst(t, bfo):
    return BfoMeasurement(float(t), Channel.R, MessageType.DATA, float(bfo), cn0_dbhz=41.7)


def normal_equations_oracle(times, bfos, t0):
    """Brute-force OLS via the explicit normal equations."""
    h = (np.asarray(times) - t0) / 3600.0
    y = np.asarray(bfos)
    n = len(h)
    sx, sy = h.sum(), y.sum()
    sxx, sxy = (h * h).sum(), (h * y).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return slope, intercept


class TestFit:
    def test_two_points_interpolating_line(self):
        model = fit_linear_trend([burst(0, 10.0), burst(3600, 20.0)], (0.0, 3600.0))
        assert model.slope_hz_per_hour == pytest.approx(10.0, rel=1e-12)
        assert model.intercept_hz == pytest.approx(10.0, rel=1e-12)
        assert model.residual_rms_hz == pytest.approx(0.0, abs=1e-9)

    def test_collinear_points(self):
        ms = [burst(600 * i, 5.0 + 2.5 * (600 * i) / 3600.0) for i in range(10)]
        model = fit_linear_trend(ms, (0.0, 5400.0))
        assert model.residual_rms_hz == pytest.approx(0.0, abs=1e-9)
        assert model.slope_hz_per_hour == pytest.approx(2.5, rel=1e-9)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = rng.integers(3, 40)
            times = np.sort(rng.uniform(0.0, 20000.0, n))
            bfos = rng.uniform(-50.0, 300.0, n)
            model = fit_linear_trend(
                [burst(t, b) for t, b in zip(times, bfos)], (0.0, 20000.0)
            )
            slope, intercept = normal_equations_oracle(times, bfos, 0.0)
            assert model.slope_hz_per_hour == pytest.approx(slope, rel=1e-9, abs=1e-9)
            assert model.intercept_hz == pytest.approx(intercept, rel=1e-9, abs=1e-9)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(22)
        times = np.sort(rng.uniform(0.0, 40000.0, 60))
        bfos = 100.0 + 0.01 * times + rng.normal(0.0, 4.0, 60)
        model = fit_linear_trend([burst(t, b) for t, b in zip(times, bfos)], (0.0, 40000.0))
        residuals = bfos - np.array([model.value_at(t) for t in times])
        assert abs(residuals.sum()) < 1e-9 * len(times) * np.abs(bfos).max()

    def test_time_shift_equivariance(self):
        rng = np.random.default_rng(24)
        times = np.sort(rng.uniform(0.0, 30000.0, 25))
        bfos = rng.uniform(0.0, 250.0, 25)
        delta = 86400.0
        m1 = fit_linear_trend([burst(t, b) for t, b in zip(times, bfos)], (0.0, 30000.0))
        m2 = fit_linear_trend(
            [burst(t + delta, b) for t, b in zip(times, bfos)], (delta, 30000.0 + delta)
        )
        for t in rng.uniform(-10000.0, 50000.0, 20):
            assert m2.value_at(t + delta) == pytest.approx(m1.value_at(t), abs=1e-6)

    def test_insufficient_points(self):
        with pytest.raises(DomainError):
            fit_linear_trend([burst(0, 1.0)], (0.0, 100.0))
        with pytest.raises(DomainError):
            fit_linear_trend([burst(50, 1.0), burst(50, 2.0)], (0.0, 100.0))

    def test_overflowing_residuals_raise_domain_error(self):
        # finite BFOs whose squared residuals pass the largest float
        ms = [burst(600 * i, 1.5e308 * (-1) ** i) for i in range(6)]
        with pytest.raises(DomainError, match="trend residuals overflow"):
            fit_linear_trend(ms, (0.0, 3600.0))


@st.composite
def cruise(draw):
    """Bursts on a noisy line, at distinct whole minutes over up to 12 h, in
    any order, with the window they span."""
    minutes = draw(st.lists(st.integers(0, 720), min_size=2, max_size=40, unique=True))
    t0 = draw(st.integers(1_300_000_000, 1_500_000_000)) * 1.0
    intercept, slope = draw(st.floats(-300.0, 300.0)), draw(st.floats(-60.0, 60.0))
    noise = draw(st.lists(st.floats(-30.0, 30.0), min_size=len(minutes), max_size=len(minutes)))
    ms = [burst(t0 + 60 * m, intercept + slope * m / 60 + e) for m, e in zip(minutes, noise)]
    return ms, (t0, t0 + 60 * max(minutes))


def close(a, b):
    return a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestFitLaws:
    """Laws of the least-squares line that hold for any bursts."""

    @settings(max_examples=150, deadline=None)
    @given(data=cruise(), order=st.randoms(use_true_random=False))
    def test_order_of_the_measurements_does_not_matter(self, data, order):
        ms, window = data
        shuffled = list(ms)
        order.shuffle(shuffled)
        a, b = fit_linear_trend(ms, window), fit_linear_trend(shuffled, window)
        assert close(b.slope_hz_per_hour, a.slope_hz_per_hour)
        assert close(b.intercept_hz, a.intercept_hz)
        assert close(b.residual_rms_hz, a.residual_rms_hz)

    @settings(max_examples=150, deadline=None)
    @given(data=cruise(), c=st.floats(-1000.0, 1000.0))
    def test_a_constant_added_to_every_bfo_moves_only_the_intercept(self, data, c):
        ms, window = data
        a = fit_linear_trend(ms, window)
        b = fit_linear_trend([m._replace(bfo_hz=m.bfo_hz + c) for m in ms], window)
        assert close(b.slope_hz_per_hour, a.slope_hz_per_hour)
        assert close(b.intercept_hz, a.intercept_hz + c)
        assert close(b.residual_rms_hz, a.residual_rms_hz)


class TestExtrapolate:
    def test_midpoint_of_symmetric_data_is_mean(self):
        rng = np.random.default_rng(25)
        # symmetric sample times about 5000 s
        offsets = rng.uniform(0.0, 5000.0, 20)
        times = np.concatenate([5000.0 - offsets, 5000.0 + offsets])
        bfos = rng.uniform(0.0, 100.0, 40)
        model = fit_linear_trend([burst(t, b) for t, b in zip(times, bfos)], (0.0, 10000.0))
        assert model.value_at(float(np.mean(times))) == pytest.approx(float(np.mean(bfos)), abs=1e-9)

    def test_zero_slope(self):
        ms = [burst(0, 42.0), burst(1000, 42.0), burst(2000, 42.0)]
        model = fit_linear_trend(ms, (0.0, 2000.0))
        for t in (-5000.0, 0.0, 9000.0):
            assert extrapolate(model, t) == pytest.approx(42.0, abs=1e-9)

    def test_warns_far_beyond_window(self):
        model = fit_linear_trend([burst(0, 10.0), burst(3600, 20.0)], (0.0, 3600.0))
        with pytest.warns(UserWarning):
            extrapolate(model, 3600.0 + 3.0 * 3600.0)


@pytest.fixture()
def model(analysis_config, log_records):
    return fit_linear_trend(log_records.measurements, analysis_config.fit_window)


class TestCruiseFixture:

    def test_forward_extrapolation_to_final_logon(self, analysis_config, model):
        t = analysis_config.parse_time("00:19:29Z")
        assert 252.0 <= extrapolate(model, t) <= 256.0

    def test_expected_south_track_bfo(self, analysis_config, model, ephemeris, corrections):
        curve = bfo_error_vs_track(
            crossing=analysis_config.arc_crossing,
            t=analysis_config.parse_time("00:11Z"),
            ground_speed_mps=450.0 * KNOTS_TO_MPS,
            measured_bfo_hz=252.0,
            ephemeris=ephemeris,
            corrections=corrections,
            bias_hz=analysis_config.bias_hz,
            cfg=analysis_config.channel,
            slot=analysis_config.slot,
        )
        south = track_offset(curve, TrackSector.SOUTH)
        expected = extrapolate(model, analysis_config.parse_time("00:19:29Z")) + south
        assert expected == pytest.approx(260.0, abs=2.0)

    def test_north_track_uses_canonical_expected_value(self, analysis_config):
        # geometry for the northern offset is not reproducible from the
        # synthetic ephemeris; the canonical expected value is config data
        assert analysis_config.expected_north_hz == 280.0
        assert analysis_config.expected_south_hz == 260.0

    def test_backward_extrapolation_consistent_with_call_attempt(
        self, analysis_config, model, log_records
    ):
        calls = [
            m
            for m in log_records.measurements
            if m.message_type.value == "phone"
            and m.timestamp < analysis_config.fit_window[0]
        ]
        assert len(calls) == 2
        call_mean = sum(m.bfo_hz for m in calls) / len(calls)
        back = extrapolate(model, parse_time_utc("2014-03-07T18:40:24Z"))
        assert abs(back - call_mean) <= 10.0
