import math

import numpy as np
import pytest

from bfokit.errors import DomainError
from bfokit.satellite import (
    GEO_RADIUS_M,
    _segment_index,
    CorrectionTable,
    EphemerisTable,
    NominalSlot,
    SyntheticGeoModel,
    deterministic_correction_at,
    nominal_satellite_position,
    satellite_state_at,
)


def linear_table(p0, v, t0=0.0, t1=100.0):
    p1 = [p0[i] + v[i] * (t1 - t0) for i in range(3)]
    return EphemerisTable([t0, t1], [p0, p1], [v, v])


GEO_P0 = [GEO_RADIUS_M, 0.0, 0.0]


class TestEphemerisInterpolation:
    def test_table_rows_reproduced_exactly(self):
        model = SyntheticGeoModel(node_time=0.0)
        table = model.table(0.0, 3600.0, 600.0)
        for i in range(len(table)):
            t, row = table.time_list[i], table.row_list[i]
            st = satellite_state_at(t, table)
            assert st.position.as_tuple() == pytest.approx(row[:3], abs=1e-9)
            assert st.velocity.as_tuple() == pytest.approx(row[3:], abs=1e-12)

    def test_midpoint_of_linear_motion_is_mean(self):
        v = [1.0, -2.0, 0.5]
        table = linear_table(GEO_P0, v)
        st = satellite_state_at(50.0, table)
        want = [GEO_P0[i] + v[i] * 50.0 for i in range(3)]
        assert st.position.as_tuple() == pytest.approx(want, abs=1e-9)
        assert st.velocity.as_tuple() == pytest.approx(v, abs=1e-12)

    def test_off_grid_matches_generating_model_to_1m(self):
        model = SyntheticGeoModel(
            longitude_deg=64.5, inclination_deg=1.65, node_time=1000.0, eccentricity=0.0003
        )
        table = model.table(0.0, 7200.0, 600.0)
        rng = np.random.default_rng(19)
        for t in rng.uniform(0.0, 7200.0, 100):
            got = satellite_state_at(float(t), table).position
            want = model.state_at(float(t)).position
            assert (got - want).norm() < 1.0

    def test_velocity_consistent_with_position_derivative(self):
        # uniform circular motion at geosynchronous radius
        omega = 2 * math.pi / 86164.0
        u1 = np.array([1.0, 0.0, 0.0])
        u2 = np.array([0.0, math.cos(0.3), math.sin(0.3)])

        def state(t):
            p = GEO_RADIUS_M * (math.cos(omega * t) * u1 + math.sin(omega * t) * u2)
            v = GEO_RADIUS_M * omega * (-math.sin(omega * t) * u1 + math.cos(omega * t) * u2)
            return p, v

        times = np.arange(0.0, 7200.1, 600.0)
        rows = [state(t) for t in times]
        table = EphemerisTable(times, [p for p, _ in rows], [v for _, v in rows])

        rng = np.random.default_rng(23)
        h = 1.0
        for t in rng.uniform(h, 7200.0 - h, 50):
            v = satellite_state_at(float(t), table).velocity
            p_plus = np.array(satellite_state_at(float(t) + h, table).position.as_tuple())
            p_minus = np.array(satellite_state_at(float(t) - h, table).position.as_tuple())
            fd = (p_plus - p_minus) / (2.0 * h)
            assert np.max(np.abs(np.array(v.as_tuple()) - fd)) < 1e-3

    def test_out_of_span_rejected(self):
        table = linear_table(GEO_P0, [0.0, 1.0, 0.0])
        with pytest.raises(DomainError):
            satellite_state_at(-0.1, table)
        with pytest.raises(DomainError):
            satellite_state_at(100.1, table)

    def test_validation(self):
        with pytest.raises(DomainError):
            EphemerisTable([0.0], [GEO_P0], [[0.0, 0.0, 0.0]])
        with pytest.raises(DomainError):
            EphemerisTable([0.0, 0.0], [GEO_P0, GEO_P0], [[0, 0, 0], [0, 0, 0]])
        with pytest.raises(DomainError):
            EphemerisTable(
                [0.0, 1.0], [[7e6, 0, 0], [7e6, 0, 0]], [[0, 0, 0], [0, 0, 0]]
            )  # LEO radius, outside the geosynchronous shell


class TestSegmentIndex:
    TIMES = np.array([0.0, 10.0, 20.0, 30.0])

    def test_first_knot_is_first_segment(self):
        assert _segment_index(self.TIMES, 0.0) == 0

    def test_last_knot_clamps_to_last_segment(self):
        assert _segment_index(self.TIMES, 30.0) == 2

    def test_interior_knot_starts_its_segment(self):
        assert _segment_index(self.TIMES, 10.0) == 1
        assert _segment_index(self.TIMES, 20.0) == 2
        assert _segment_index(self.TIMES, np.nextafter(20.0, 0.0)) == 1

    def test_out_of_span_and_nan_rejected(self):
        for t in (-1e-9, 30.0 + 1e-9, math.nan):
            with pytest.raises(DomainError):
                _segment_index(self.TIMES, t)

    def test_knot_values_exact(self):
        c = CorrectionTable(self.TIMES, [1.0, 2.5, -4.0, 7.0])
        assert [deterministic_correction_at(float(t), c) for t in self.TIMES] == [1.0, 2.5, -4.0, 7.0]


class TestNominalPosition:
    def test_slot_64_5_east(self):
        p = nominal_satellite_position(NominalSlot(longitude_deg=64.5))
        r = 42164169.0
        want = (r * math.cos(math.radians(64.5)), r * math.sin(math.radians(64.5)), 0.0)
        assert p.as_tuple() == pytest.approx(want, abs=1e-6)

    def test_slot_zero(self):
        p = nominal_satellite_position(NominalSlot(longitude_deg=0.0))
        assert p.as_tuple() == pytest.approx((42164169.0, 0.0, 0.0), abs=1e-6)

    def test_norm_preserved_for_any_slot(self):
        for lon in (-120.0, -10.0, 64.5, 170.0):
            p = nominal_satellite_position(NominalSlot(longitude_deg=lon))
            assert p.norm() == pytest.approx(42164169.0, abs=1e-6)


class TestCorrections:
    def test_row_value(self):
        c = CorrectionTable([0.0, 100.0], [10.0, 20.0])
        assert deterministic_correction_at(0.0, c) == 10.0
        assert deterministic_correction_at(100.0, c) == 20.0

    def test_midpoint(self):
        c = CorrectionTable([0.0, 100.0], [10.0, 20.0])
        assert deterministic_correction_at(50.0, c) == pytest.approx(15.0, abs=1e-12)

    def test_sparse_resample_agrees_with_dense(self):
        omega = 2 * math.pi / 86164.0

        def f(t):
            return 50.0 * math.sin(omega * t + 0.4)

        dense_t = np.arange(0.0, 43200.1, 60.0)
        sparse_t = np.arange(0.0, 43200.1, 600.0)
        dense = CorrectionTable(dense_t, [f(t) for t in dense_t])
        sparse = CorrectionTable(sparse_t, [f(t) for t in sparse_t])
        rng = np.random.default_rng(31)
        for t in rng.uniform(0.0, 43200.0, 200):
            a = deterministic_correction_at(float(t), dense)
            b = deterministic_correction_at(float(t), sparse)
            assert abs(a - b) < 0.1

    def test_out_of_span_rejected(self):
        c = CorrectionTable([0.0, 100.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            deterministic_correction_at(101.0, c)


class TestSyntheticModel:
    def test_radius_stays_in_geo_shell(self):
        model = SyntheticGeoModel(inclination_deg=2.0, eccentricity=0.0005, node_time=0.0)
        for t in np.linspace(0.0, 86164.0, 200):
            r = model.state_at(float(t)).position.norm()
            assert abs(r - GEO_RADIUS_M) < 500e3

    def test_velocity_is_position_derivative(self):
        model = SyntheticGeoModel(inclination_deg=1.65, eccentricity=0.00025, node_time=500.0)
        h = 0.5
        for t in (0.0, 10000.0, 40000.0, 80000.0):
            v = np.array(model.state_at(t).velocity.as_tuple())
            fd = (
                np.array(model.state_at(t + h).position.as_tuple())
                - np.array(model.state_at(t - h).position.as_tuple())
            ) / (2 * h)
            assert np.max(np.abs(v - fd)) < 1e-4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_correction_table_rejects_non_finite_values(bad):
    with pytest.raises(DomainError):
        CorrectionTable([0.0, 600.0], [1.0, bad])
    with pytest.raises(DomainError):
        CorrectionTable([bad], [1.0])


@pytest.mark.parametrize("times", [[0.0, math.inf], [-math.inf, 0.0]])
def test_ephemeris_table_rejects_infinite_times(times):
    with pytest.raises(DomainError, match="ephemeris rows must be finite"):
        EphemerisTable(times, [GEO_P0, GEO_P0], [[0, 0, 0], [0, 0, 0]])


class TestTableShapes:
    """Constructors check shapes before any reshape, and raise DomainError."""

    V0 = [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("times, positions, velocities", [
        ([0.0, 1.0, 2.0], [GEO_P0, GEO_P0], [V0, V0, V0]),  # fewer positions than times
        ([0.0, 1.0], [GEO_P0, GEO_P0], [V0, V0, V0]),  # more velocities than times
    ], ids=["positions", "velocities"])
    def test_ephemeris_counts_must_match(self, times, positions, velocities):
        with pytest.raises(DomainError, match=r"must have shape \(\d, 3\)"):
            EphemerisTable(times, positions, velocities)

    def test_ephemeris_rows_need_three_components(self):
        with pytest.raises(DomainError, match=r"positions must have shape \(3, 3\), got \(3, 2\)"):
            EphemerisTable([0.0, 1.0, 2.0], [GEO_P0[:2]] * 3, [self.V0[:2]] * 3)

    def test_ephemeris_flat_rows_are_not_reshaped(self):
        with pytest.raises(DomainError, match=r"positions must have shape \(2, 3\), got \(6,\)"):
            EphemerisTable([0.0, 1.0], GEO_P0 + GEO_P0, self.V0 + self.V0)

    def test_ephemeris_ragged_rows_rejected(self):
        with pytest.raises(DomainError, match="rows of equal length"):
            EphemerisTable([0.0, 1.0], [GEO_P0, GEO_P0[:2]], [self.V0, self.V0])

    def test_ephemeris_times_must_be_one_dimensional(self):
        with pytest.raises(DomainError, match="times must be one-dimensional"):
            EphemerisTable([[0.0, 1.0]], [GEO_P0, GEO_P0], [self.V0, self.V0])

    def test_correction_columns_must_be_one_dimensional(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            CorrectionTable([[0, 1], [2, 3]], [1.0, 2.0])
        with pytest.raises(DomainError, match="one-dimensional"):
            CorrectionTable([0.0, 1.0], [[1.0], [2.0]])
