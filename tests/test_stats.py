import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfokit.config import SCHEMA
from bfokit.errors import DomainError
from bfokit.fixtures import bundled_config_path, fixture_path
from bfokit.ingest import load_error_samples_csv
from bfokit.stats import (
    BfoMeasurement,
    Channel,
    MessageType,
    NoiseBounds,
    bfo_error,
    compute_error_stats,
    flag_outliers,
)


def burst(i, ber=0.0, cn0=41.7):
    return BfoMeasurement(
        timestamp=float(i),
        channel=Channel.R,
        message_type=MessageType.DATA,
        bfo_hz=100.0 + i,
        ber=ber,
        cn0_dbhz=cn0,
    )


class TestBfoError:
    def test_predicted_minus_measured(self):
        assert bfo_error(260.0, 252.0) == 8.0

    def test_zero_for_equal(self):
        assert bfo_error(123.4, 123.4) == 0.0

    def test_large_negative_outlier_sign(self):
        assert bfo_error(0.0, 170.0) == -170.0


class TestErrorStats:
    def test_two_samples(self):
        s = compute_error_stats([1.0, -1.0])
        assert s.mean_hz == 0.0
        assert s.std_hz == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert (s.min_hz, s.max_hz, s.count) == (-1.0, 1.0, 2)

    def test_constant_list(self):
        s = compute_error_stats([4.2] * 10)
        assert s.std_hz == 0.0
        assert s.mean_hz == 4.2

    def test_reference_fixture_moments(self):
        values, provenance = load_error_samples_csv(fixture_path("bfo_error_reference.csv"))
        assert len(values) == 2501
        assert any("synthetic" in line for line in provenance)
        s = compute_error_stats(values)
        assert s.mean_hz == pytest.approx(0.18, abs=0.01)
        assert s.std_hz == pytest.approx(4.3, abs=0.05)
        assert s.min_hz == -28.0
        assert s.max_hz == 18.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        errors = rng.normal(0.2, 4.0, 300).tolist()
        a = compute_error_stats(errors)
        b = compute_error_stats(list(reversed(errors)))
        shuffled = errors[:]
        rng.shuffle(shuffled)
        c = compute_error_stats(shuffled)
        for s in (b, c):
            assert s.mean_hz == pytest.approx(a.mean_hz, abs=1e-12)
            assert s.std_hz == pytest.approx(a.std_hz, abs=1e-12)
            assert (s.min_hz, s.max_hz) == (a.min_hz, a.max_hz)

    def test_constant_shift(self):
        rng = np.random.default_rng(14)
        errors = rng.normal(0.0, 3.0, 200)
        a = compute_error_stats(errors.tolist())
        b = compute_error_stats((errors + 7.5).tolist())
        assert b.mean_hz == pytest.approx(a.mean_hz + 7.5, abs=1e-9)
        assert b.min_hz == pytest.approx(a.min_hz + 7.5, abs=1e-12)
        assert b.max_hz == pytest.approx(a.max_hz + 7.5, abs=1e-12)
        assert b.std_hz == pytest.approx(a.std_hz, abs=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            compute_error_stats([1.0])


class TestFlagOutliers:
    def test_published_outlier_case(self):
        ms = [burst(0, cn0=41.5), burst(1, cn0=41.7), burst(2, ber=1.0, cn0=37.6),
              burst(3, cn0=41.8), burst(4, cn0=42.0)]
        assert flag_outliers(ms, cn0_drop_threshold_db=3.0) == [False, False, True, False, False]

    def test_zero_ber_never_flagged(self):
        ms = [burst(0, cn0=41.5), burst(1, ber=0.0, cn0=20.0), burst(2, cn0=41.8)]
        assert flag_outliers(ms) == [False, False, False]

    def test_zero_ber_never_flagged_property(self):
        rng = np.random.default_rng(15)
        ms = [burst(i, ber=0.0, cn0=rng.uniform(20.0, 45.0)) for i in range(100)]
        assert not any(flag_outliers(ms))

    def test_nonzero_ber_without_cn0_drop(self):
        ms = [burst(0, cn0=41.7), burst(1, ber=2.0, cn0=41.7), burst(2, cn0=41.7)]
        assert flag_outliers(ms) == [False, False, False]


    @staticmethod
    def quadratic_oracle(ms, threshold, window):
        """The definition, scanning every burst for each neighborhood."""
        half = window // 2
        flags = []
        for i, m in enumerate(ms):
            neighbors = [x.cn0_dbhz for j, x in enumerate(ms) if j != i and abs(j - i) <= half]
            if m.ber <= 0 or not neighbors:
                flags.append(False)
                continue
            flags.append(statistics.median(neighbors) - m.cn0_dbhz >= threshold)
        return flags

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.0, 1e-4, 2.0]), st.floats(20.0, 50.0, allow_nan=False)),
            max_size=40,
        ),
        st.floats(0.0, 10.0),
        st.integers(-2, 12),
    )
    def test_matches_quadratic_definition(self, rows, threshold, window):
        ms = [burst(i, ber=b, cn0=c) for i, (b, c) in enumerate(rows)]
        assert flag_outliers(ms, threshold, window) == self.quadratic_oracle(ms, threshold, window)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-41.5, -3.0, 0.0, 5e-324, 37.6, 41.7]) | st.floats(-1e300, 1e300),
                    min_size=1, max_size=12))
    @example([41.7, -3.0, 41.7])  # odd, with a repeated and a negative value
    @example([-3.0, 37.6, -3.0, -41.5])  # even
    @example([5e-324, 5e-324])  # the sum is halved, not each value: 5e-324 / 2 rounds to 0
    def test_neighbor_median_is_the_statistics_median(self, values):
        # The first burst has every other burst as a neighbor and C/N0 0, so its drop is the median itself.
        # It is flagged at statistics.median's value and not at the next float above only if the two are equal.
        median = statistics.median(values)
        ms = [burst(0, ber=1.0, cn0=0.0), *(burst(i, cn0=c) for i, c in enumerate(values, start=1))]
        assert flag_outliers(ms, median, 2 * len(values))[0]
        assert not flag_outliers(ms, math.nextafter(median, math.inf), 2 * len(values))[0]


class TestMeasurementValidation:
    @pytest.mark.parametrize("field", ["ber", "cn0_dbhz"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_quality_rejected(self, field, bad):
        with pytest.raises(DomainError):
            BfoMeasurement(0.0, Channel.R, MessageType.DATA, 100.0, **{field: bad})

    def test_negative_ber_rejected(self):
        with pytest.raises(DomainError):
            BfoMeasurement(0.0, Channel.R, MessageType.DATA, 100.0, ber=-0.1)


class TestNoiseBounds:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            NoiseBounds(5.0, -5.0)

    def test_reference_interval(self):
        nb = NoiseBounds(-28.0, 18.0)
        assert nb.lower_hz <= nb.upper_hz

    def test_configured_bounds_are_the_reference_samples_extremes(self):
        # The config holds the bounds as numbers; they are the extremes of the bundled samples.
        values, _ = load_error_samples_csv(fixture_path("bfo_error_reference.csv"))
        extremes = {"lower_hz": min(values), "upper_hz": max(values)}
        bundled = json.loads(bundled_config_path().read_text(encoding="utf-8"))
        assert SCHEMA["noise_bounds"][1] == extremes
        assert bundled["noise_bounds"] == extremes
