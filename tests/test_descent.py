import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfokit import bfo_model, descent, track_sweep, units
from bfokit.bfo_model import AircraftState, ChannelConfig, descent_sensitivity, predict_bfo, vertical_doppler
from bfokit.descent import (
    BfoRange,
    DescentBoundsTable,
    DescentRates,
    Hypothesis,
    adjusted_bfo_range,
    analyze,
    final_logon_pair,
    combine_hypotheses,
    descent_rate_bounds,
    drift_removed_range,
    estimate_downward_acceleration,
    round_to_fpm,
)
from bfokit.errors import DomainError
from bfokit.geodesy import GeodeticPosition, GroundKinematics, elevation_angle
from bfokit.satellite import satellite_state_at
from bfokit.stats import BfoMeasurement, Channel, MessageType, NoiseBounds
from bfokit.timestamps import parse_time_utc
from bfokit.warmup import DriftBounds

NOISE = NoiseBounds(-28.0, 18.0)
DRIFT = DriftBounds((17.0, 136.0), (17.0, 130.0), (0.0, 6.0))

# two timestamps 8 seconds apart, as for the final log-on pair
T29, T37 = 0.0, 8.0


def rates(expected_south, expected_north, adjusted):
    return descent_rate_bounds(expected_south, expected_north, adjusted, 1.7)


class TestAdjustedRanges:
    def test_power_outage_logon(self):
        removed = drift_removed_range(182.0, "logon", DRIFT)
        assert (removed.lower_hz, removed.upper_hz) == (46.0, 165.0)
        adj = adjusted_bfo_range(182.0, "logon", Hypothesis.POWER_OUTAGE, DRIFT, NOISE)
        assert (adj.lower_hz, adj.upper_hz) == (28.0, 193.0)

    def test_power_outage_ack(self):
        removed = drift_removed_range(-2.0, "ack", DRIFT)
        assert (removed.lower_hz, removed.upper_hz) == (-132.0, -19.0)
        adj = adjusted_bfo_range(-2.0, "ack", Hypothesis.POWER_OUTAGE, DRIFT, NOISE)
        assert (adj.lower_hz, adj.upper_hz) == (-150.0, 9.0)

    def test_other_cause(self):
        adj = adjusted_bfo_range(182.0, "logon", Hypothesis.OTHER_CAUSE, None, NOISE)
        assert (adj.lower_hz, adj.upper_hz) == (164.0, 210.0)
        adj = adjusted_bfo_range(-2.0, "ack", Hypothesis.OTHER_CAUSE, None, NOISE)
        assert (adj.lower_hz, adj.upper_hz) == (-20.0, 26.0)

    def test_power_outage_requires_drift(self):
        with pytest.raises(DomainError):
            adjusted_bfo_range(182.0, "logon", Hypothesis.POWER_OUTAGE, None, NOISE)

    def test_unknown_message_rejected(self):
        with pytest.raises(DomainError):
            adjusted_bfo_range(182.0, "interrogation", Hypothesis.OTHER_CAUSE, None, NOISE)


class TestDescentRateBounds:
    def test_h1_at_logon(self):
        r = rates(260.0, 280.0, BfoRange(28.0, 193.0))
        assert r.south_fpm == (3900.0, 13600.0)
        assert r.north_fpm == (5100.0, 14800.0)

    def test_h1_at_ack(self):
        r = rates(260.0, 280.0, BfoRange(-150.0, 9.0))
        assert r.south_fpm == (14800.0, 24100.0)
        assert r.north_fpm == (15900.0, 25300.0)

    def test_h2_at_logon(self):
        r = rates(260.0, 280.0, BfoRange(164.0, 210.0))
        assert r.south_fpm == (2900.0, 5600.0)
        assert r.north_fpm == (4100.0, 6800.0)

    def test_h2_at_ack(self):
        r = rates(260.0, 280.0, BfoRange(-20.0, 26.0))
        assert r.south_fpm == (13800.0, 16500.0)
        assert r.north_fpm == (14900.0, 17600.0)

    def test_all_rates_positive(self):
        for adj in (BfoRange(28.0, 193.0), BfoRange(-150.0, 9.0),
                    BfoRange(164.0, 210.0), BfoRange(-20.0, 26.0)):
            r = rates(260.0, 280.0, adj)
            assert min(r.south_fpm[0], r.north_fpm[0]) > 0.0

    def test_north_south_gap_before_rounding(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            lo = rng.uniform(-200.0, 100.0)
            adj = BfoRange(lo, lo + rng.uniform(0.0, 150.0))
            r = descent_rate_bounds(260.0, 280.0, adj, 1.7, rounding_fpm=None)
            gap = (280.0 - 260.0) / 1.7 * 100.0
            assert r.north_fpm[0] - r.south_fpm[0] == pytest.approx(gap, abs=1e-9)
            assert r.north_fpm[1] - r.south_fpm[1] == pytest.approx(gap, abs=1e-9)

    def test_widening_never_narrows(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            rec = rng.uniform(-50.0, 250.0)
            d_lo, d_hi = sorted(rng.uniform(0.0, 150.0, 2))
            n_lo, n_hi = sorted(rng.uniform(-40.0, 30.0, 2))
            drift = DriftBounds((d_lo, d_hi), (d_lo, d_hi), (0.0, 1.0))
            noise = NoiseBounds(n_lo, n_hi)
            adj = adjusted_bfo_range(rec, "logon", Hypothesis.POWER_OUTAGE, drift, noise)
            base = descent_rate_bounds(260.0, 280.0, adj, 1.7, rounding_fpm=None)

            wider_drift = DriftBounds((d_lo - 5.0, d_hi + 5.0), (d_lo - 5.0, d_hi + 5.0), (0.0, 1.0))
            wider_noise = NoiseBounds(n_lo - 4.0, n_hi + 4.0)
            for d, n in ((wider_drift, noise), (drift, wider_noise), (wider_drift, wider_noise)):
                adj2 = adjusted_bfo_range(rec, "logon", Hypothesis.POWER_OUTAGE, d, n)
                wide = descent_rate_bounds(260.0, 280.0, adj2, 1.7, rounding_fpm=None)
                assert wide.south_fpm[0] <= base.south_fpm[0]
                assert wide.south_fpm[1] >= base.south_fpm[1]
                assert wide.north_fpm[0] <= base.north_fpm[0]
                assert wide.north_fpm[1] >= base.north_fpm[1]

    def test_sensitivity_must_be_positive(self):
        with pytest.raises(DomainError):
            descent_rate_bounds(260.0, 280.0, BfoRange(0.0, 1.0), 0.0)

    @pytest.mark.parametrize("expected, adjusted, sensitivity", [
        (260.0, BfoRange(0.0, 1.0), 5e-324),
        (1e308, BfoRange(0.0, 1.0), 1.7),
        (260.0, BfoRange(-1e308, 1e308), 1.7),
    ])
    @pytest.mark.parametrize("rounding", [100.0, None])
    def test_overflowing_rate_is_a_domain_error(self, expected, adjusted, sensitivity, rounding):
        with pytest.raises(DomainError, match="descent rate is not finite"):
            descent_rate_bounds(expected, 280.0, adjusted, sensitivity, rounding)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_to_fpm(50.0) == 100.0
        assert round_to_fpm(-50.0) == -100.0
        assert round_to_fpm(149.0) == 100.0
        assert round_to_fpm(150.0) == 200.0
        assert round_to_fpm(3941.18) == 3900.0
        assert round_to_fpm(14764.7) == 14800.0


def reference_tables():
    h1 = DescentBoundsTable(
        (T29, T37),
        (
            rates(260.0, 280.0, BfoRange(28.0, 193.0)),
            rates(260.0, 280.0, BfoRange(-150.0, 9.0)),
        ),
    )
    h2 = DescentBoundsTable(
        (T29, T37),
        (
            rates(260.0, 280.0, BfoRange(164.0, 210.0)),
            rates(260.0, 280.0, BfoRange(-20.0, 26.0)),
        ),
    )
    return h1, h2


class TestCombination:
    def test_reference_outer_bounds(self):
        combined = combine_hypotheses(*reference_tables())
        assert combined.row(T29).outer_fpm == (2900.0, 14800.0)
        assert combined.row(T37).outer_fpm == (13800.0, 25300.0)

    def test_identity_when_equal(self):
        h1, _ = reference_tables()
        combined = combine_hypotheses(h1, h1)
        assert combined.rates == h1.rates

    def test_envelope_contains_inputs(self):
        h1, h2 = reference_tables()
        combined = combine_hypotheses(h1, h2)
        for t in (T29, T37):
            lo, hi = combined.row(t).outer_fpm
            for table in (h1, h2):
                r = table.row(t)
                assert lo <= min(r.south_fpm[0], r.north_fpm[0])
                assert hi >= max(r.south_fpm[1], r.north_fpm[1])

    def test_row_is_the_first_at_its_time_and_nan_matches_none(self):
        h1, h2 = reference_tables()
        table = DescentBoundsTable((T29, T29, float("nan")), (h1.rates[0], h2.rates[0], h1.rates[1]))
        assert table.row(T29) is h1.rates[0]
        with pytest.raises(DomainError, match="no row at time nan"):
            table.row(float("nan"))
        with pytest.raises(DomainError, match="no row at time 8.0"):
            table.row(T37)

    def test_timestamp_mismatch_rejected(self):
        h1, h2 = reference_tables()
        other = DescentBoundsTable((T29, T37 + 1.0), h2.rates)
        with pytest.raises(DomainError):
            combine_hypotheses(h1, other)


class TestAcceleration:
    def test_midpoint_estimator(self):
        combined = combine_hypotheses(*reference_tables())
        est = estimate_downward_acceleration(combined, T29, T37)
        assert est.fpm_per_s == pytest.approx(1337.5, abs=1e-9)
        assert est.mps2 == pytest.approx(6.7945, abs=1e-6)
        assert est.g == pytest.approx(0.68, abs=0.03)

    def test_bounds_near_the_float_limit_give_a_finite_midpoint(self):
        # the two outer bounds of a row sum past the largest float
        r1 = DescentRates((1.0e308, 1.6e308), (1.0e308, 1.6e308))
        r2 = DescentRates((1.2e308, 1.6e308), (1.2e308, 1.6e308))
        est = estimate_downward_acceleration(DescentBoundsTable((T29, T37), (r1, r2)), T29, T37)
        assert est.fpm_per_s == pytest.approx(0.1e308 / 8.0)

    def test_overflowing_midpoint_difference_rejected(self):
        low, high = DescentRates((-1e308, -1e308), (-1e308, -1e308)), DescentRates((1e308, 1e308), (1e308, 1e308))
        with pytest.raises(DomainError, match="acceleration is not finite"):
            estimate_downward_acceleration(DescentBoundsTable((T29, T37), (low, high)), T29, T37)

    def test_identical_bounds_give_zero(self):
        r = rates(260.0, 280.0, BfoRange(28.0, 193.0))
        table = DescentBoundsTable((T29, T37), (r, r))
        est = estimate_downward_acceleration(table, T29, T37)
        assert est.fpm_per_s == 0.0

    def test_equal_timestamps_rejected(self):
        combined = combine_hypotheses(*reference_tables())
        with pytest.raises(DomainError):
            estimate_downward_acceleration(combined, T29, T29)

    def test_reversed_timestamps_rejected(self):
        combined = combine_hypotheses(*reference_tables())
        with pytest.raises(DomainError):
            estimate_downward_acceleration(combined, T37, T29)


def final_pair():
    """A (request, ack) pair with the paper's 182 / -2 Hz final BFOs."""
    return (
        BfoMeasurement(T29, Channel.R, MessageType.LOGON_REQUEST, 182.0),
        BfoMeasurement(T37, Channel.R, MessageType.LOGON_ACK, -2.0),
    )


def run_analyze(hypotheses, drift=DRIFT):
    return analyze(final_pair(), drift, NOISE, 260.0, 280.0, 1.7, hypotheses)


class TestAnalyze:
    def test_reproduces_the_paper_tables(self):
        result = run_analyze(list(Hypothesis))
        assert result.times == (T29, T37) and result.recorded == (182.0, -2.0)
        h1 = result.hypotheses[Hypothesis.POWER_OUTAGE]
        h2 = result.hypotheses[Hypothesis.OTHER_CAUSE]
        assert [(r.lower_hz, r.upper_hz) for r in h1.drift_removed] == [(46.0, 165.0), (-132.0, -19.0)]
        assert [(r.lower_hz, r.upper_hz) for r in h1.noise_extended] == [(28.0, 193.0), (-150.0, 9.0)]
        assert h2.drift_removed is None
        assert [(r.lower_hz, r.upper_hz) for r in h2.noise_extended] == [(164.0, 210.0), (-20.0, 26.0)]
        assert [(r.south_fpm, r.north_fpm) for r in h1.table.rates] == [
            ((3900.0, 13600.0), (5100.0, 14800.0)),
            ((14800.0, 24100.0), (15900.0, 25300.0)),
        ]
        assert [(r.south_fpm, r.north_fpm) for r in h2.table.rates] == [
            ((2900.0, 5600.0), (4100.0, 6800.0)),
            ((13800.0, 16500.0), (14900.0, 17600.0)),
        ]
        assert result.combined.row(T29).outer_fpm == (2900.0, 14800.0)
        assert result.combined.row(T37).outer_fpm == (13800.0, 25300.0)
        assert result.acceleration.fpm_per_s == 1337.5

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_one_hypothesis_has_no_envelope(self, hypothesis):
        result = run_analyze([hypothesis])
        assert list(result.hypotheses) == [hypothesis]
        assert result.combined is None and result.acceleration is None

    def test_other_cause_needs_no_drift(self):
        result = run_analyze([Hypothesis.OTHER_CAUSE], drift=None)
        assert result.hypotheses[Hypothesis.OTHER_CAUSE].drift_removed is None

    def test_power_outage_without_drift_rejected(self):
        with pytest.raises(DomainError):
            run_analyze([Hypothesis.POWER_OUTAGE], drift=None)


def eighths(lo_hz, hi_hz):
    """Hz values on a 1/8 Hz grid, exact in binary floating point."""
    return st.integers(int(lo_hz * 8), int(hi_hz * 8)).map(lambda n: n / 8.0)


def ordered(values):
    return st.tuples(values, values).map(sorted).map(tuple)


@st.composite
def descent_inputs(draw):
    """Arguments of :func:`analyze` after the pair: drift, noise, expected
    south and north BFOs, sensitivity.

    Every value is exact in binary floating point. The expected BFOs sit
    1/16 Hz off the recorded BFOs' 1/8 Hz grid, and the sensitivity is a
    power of two from 1/4 to 8 Hz per 100 fpm, so no unrounded rate lies
    exactly halfway between two 100 fpm steps. There, rounding half away
    from zero is not shift-invariant: 50 fpm rounds to 100 but -50 to -100.
    """
    drift = DriftBounds(draw(ordered(eighths(0, 150))), draw(ordered(eighths(0, 150))), (0.0, 6.0))
    noise = NoiseBounds(*draw(ordered(eighths(-40, 30))))
    south, north = (draw(eighths(200, 300)) + 1.0 / 16.0 for _ in range(2))
    return drift, noise, south, north, 2.0 ** draw(st.integers(-2, 3))


RECORDED = st.tuples(eighths(-50, 250), eighths(-50, 250))  # the final log-on request's and ack's BFOs


def pair_of(logon_hz, ack_hz):
    return (
        BfoMeasurement(T29, Channel.R, MessageType.LOGON_REQUEST, logon_hz),
        BfoMeasurement(T37, Channel.R, MessageType.LOGON_ACK, ack_hz),
    )


class TestAnalyzeLaws:
    """Laws of the whole descent derivation that hold for any inputs."""

    @settings(max_examples=100, deadline=None)
    @given(recorded=RECORDED, inputs=descent_inputs())
    def test_hypothesis_order_does_not_matter(self, recorded, inputs):
        pair = pair_of(*recorded)
        a = analyze(pair, *inputs, [Hypothesis.POWER_OUTAGE, Hypothesis.OTHER_CAUSE])
        b = analyze(pair, *inputs, [Hypothesis.OTHER_CAUSE, Hypothesis.POWER_OUTAGE])
        assert b.combined == a.combined
        assert b.acceleration == a.acceleration

    @settings(max_examples=100, deadline=None)
    @given(recorded=RECORDED, inputs=descent_inputs(), widen=st.tuples(eighths(0, 20), eighths(0, 20)))
    def test_wider_noise_never_narrows_an_outer_bound(self, recorded, inputs, widen):
        drift, noise, *rest = inputs
        wider = NoiseBounds(noise.lower_hz - widen[0], noise.upper_hz + widen[1])
        hypotheses = list(Hypothesis)
        base = analyze(pair_of(*recorded), drift, noise, *rest, hypotheses).combined
        wide = analyze(pair_of(*recorded), drift, wider, *rest, hypotheses).combined
        for t in (T29, T37):
            (low, high), (wide_low, wide_high) = base.row(t).outer_fpm, wide.row(t).outer_fpm
            assert wide_low <= low and wide_high >= high

    @settings(max_examples=100, deadline=None)
    @given(recorded=RECORDED, inputs=descent_inputs(), k=st.integers(-40, 40))
    def test_shifting_both_bfos_by_whole_sensitivities_keeps_the_acceleration(self, recorded, inputs, k):
        shift = k * inputs[-1]
        base = analyze(pair_of(*recorded), *inputs, list(Hypothesis))
        moved = analyze(pair_of(recorded[0] + shift, recorded[1] + shift), *inputs, list(Hypothesis))
        assert moved.acceleration == base.acceleration


class TestPlantedDescent:
    """The forward model and the descent chain in one closed loop: plant a
    descent at the 7th arc, record its BFOs with :func:`predict_bfo`, and
    recover the planted rates and acceleration.

    An aircraft near the arc descends at ``w1`` fpm at 00:19:29Z and at
    ``w2 <= w1`` at 00:19:37Z (negative down) on a south track. The expected
    BFOs are its level-flight BFOs on a south and a north track at 00:19:29Z,
    and the sensitivity is that at its elevation then. A recovered rate may
    miss the planted one by the 50 fpm of rounding, plus how far the
    level-flight BFO moves in the 8 s between the two messages.
    """

    RATE_SLACK_FPM = 60.0
    ACCELERATION_SLACK_FPM_PER_S = 15.0

    @settings(max_examples=150, deadline=None)
    @given(
        lat=st.floats(-40.0, -36.0), lon=st.floats(82.0, 90.0), alt=st.floats(0.0, 12000.0),
        speed_kts=st.floats(350.0, 520.0), south=st.floats(160.0, 200.0), north=st.floats(0.0, 20.0),
        rates=st.lists(st.floats(-15000.0, 0.0), min_size=2, max_size=2).map(sorted),
        drift_at=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_recovers_the_planted_rates(
        self, analysis_config, ephemeris, corrections, lat, lon, alt, speed_kts, south, north, rates, drift_at
    ):
        cfg = analysis_config
        w2, w1 = rates
        times = parse_time_utc("00:19:29Z", cfg.reference_date), parse_time_utc("00:19:37Z", cfg.reference_date)
        position = GeodeticPosition(lat, lon, alt)

        def bfo(track, w_fpm, t):
            state = AircraftState(position, GroundKinematics(speed_kts * units.KNOTS_TO_MPS, track,
                                                             w_fpm * units.FPM_TO_MPS), t)
            sat = satellite_state_at(t, ephemeris)
            return predict_bfo(state, sat, corrections, cfg.bias_hz, cfg.channel, cfg.slot)[0]

        recorded = bfo(south, w1, times[0]), bfo(south, w2, times[1])
        expected = bfo(south, 0.0, times[0]), bfo(north, 0.0, times[0])
        sat_position = satellite_state_at(times[0], ephemeris).position
        sensitivity = descent_sensitivity(elevation_angle(position, sat_position), cfg.channel)

        def run(hypothesis, drift, logon_hz, ack_hz):
            pair = (BfoMeasurement(times[0], Channel.R, MessageType.LOGON_REQUEST, logon_hz),
                    BfoMeasurement(times[1], Channel.R, MessageType.LOGON_ACK, ack_hz))
            return analyze(pair, drift, NoiseBounds(0.0, 0.0), *expected, sensitivity, [hypothesis])

        other = run(Hypothesis.OTHER_CAUSE, None, *recorded).hypotheses[Hypothesis.OTHER_CAUSE].table
        for row, w in zip(other.rates, (w1, w2)):
            for bound in row.south_fpm:  # the planted descent rate, positive down, is -w
                assert abs(bound + w) <= self.RATE_SLACK_FPM
        acceleration = estimate_downward_acceleration(other, *times)
        assert abs(acceleration.fpm_per_s - (w1 - w2) / 8.0) <= self.ACCELERATION_SLACK_FPM_PER_S

        # A drift planted inside DRIFT, at least the rate slack away from its edges, adds to each BFO.
        margin = self.RATE_SLACK_FPM / 100.0 * sensitivity
        drifted = [
            rec + lo + margin + at * (hi - lo - 2.0 * margin)
            for rec, (lo, hi), at in zip(recorded, (DRIFT.logon_minus_settled, DRIFT.ack_minus_settled), drift_at)
        ]
        outage = run(Hypothesis.POWER_OUTAGE, DRIFT, *drifted).hypotheses[Hypothesis.POWER_OUTAGE].table
        for row, w in zip(outage.rates, (w1, w2)):
            assert row.south_fpm[0] <= -w <= row.south_fpm[1]


class TestFinalLogonPair:
    def test_last_ack_pairs_with_the_request_before_it(self):
        request, ack = final_pair()
        later = BfoMeasurement(T37 + 60.0, Channel.R, MessageType.LOGON_REQUEST, 150.0)
        assert final_logon_pair([request, ack, later]) == (request, ack)

    def test_gap_over_a_minute_rejected(self):
        request, ack = final_pair()
        late_ack = BfoMeasurement(T29 + 61.0, Channel.R, MessageType.LOGON_ACK, -2.0)
        with pytest.raises(DomainError, match="more than 60 s after the last request"):
            final_logon_pair([request, late_ack])


class TestUnits:
    def test_old_names_are_the_units_constants(self):
        assert bfo_model.SPEED_OF_LIGHT_MPS is units.SPEED_OF_LIGHT_MPS
        assert track_sweep.KNOTS_TO_MPS is units.KNOTS_TO_MPS
        assert descent.FPM_TO_MPS is units.FPM_TO_MPS
        assert descent.G_MPS2 is units.G_MPS2
        assert not hasattr(bfo_model, "MPS_PER_100FPM")

    @pytest.mark.parametrize("elevation_deg", [0.5, 38.8, 45.0, 90.0])
    def test_sensitivity_uses_100_fpm(self, elevation_deg):
        cfg = ChannelConfig()
        assert descent_sensitivity(elevation_deg, cfg) == vertical_doppler(0.508, elevation_deg, cfg)
