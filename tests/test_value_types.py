"""The per-burst value types are immutable tuple types.

``BfoMeasurement``, ``EcefVector``, ``SatelliteState`` and ``BfoTerms``
are ``NamedTuple`` types. These tests pin what they keep from the frozen
dataclasses they replace (field names and order, defaults, keyword
construction, every check and its text, immutability, equality and hash
by value, vector arithmetic) and what a tuple type adds: equality with a
plain tuple of the same items.

The dataclass value types (``ChannelConfig``, ``NoiseBounds``,
``NominalSlot``) refuse a non-finite field when built, naming the field.
"""

import math
import pickle

import numpy as np
import pytest

from bfokit.bfo_model import BfoTerms, ChannelConfig, predict_bfo_batch
from bfokit.errors import DomainError
from bfokit.geodesy import EcefVector, GeodeticPosition
from bfokit.satellite import (
    GEO_RADIUS_M,
    EphemerisTable,
    NominalSlot,
    SatelliteState,
    nominal_satellite_position,
    satellite_state_at,
)
from bfokit.stats import BfoMeasurement, Channel, MessageType, NoiseBounds

NAN, INF = math.nan, math.inf


def burst(**kw):
    return BfoMeasurement(**{"timestamp": 10.0, "channel": Channel.R,
                             "message_type": MessageType.DATA, "bfo_hz": 100.0, **kw})


def sat_state():
    return SatelliteState(EcefVector(GEO_RADIUS_M, 0.0, 0.0), EcefVector(1.0, -2.0, 3.0))


def every_type():
    return [EcefVector(1.0, 2.0, 3.0), burst(), sat_state(), BfoTerms(1.0, 2.0, 3.0, 4.0, 5.0)]


class TestFields:
    def test_names_and_order(self):
        assert EcefVector._fields == ("x", "y", "z")
        assert BfoMeasurement._fields == (
            "timestamp", "channel", "message_type", "bfo_hz", "bto_us", "ber", "cn0_dbhz", "signal_db"
        )
        assert SatelliteState._fields == ("position", "velocity")
        assert BfoTerms._fields == (
            "uplink_doppler_hz", "downlink_doppler_hz", "aes_compensation_hz", "sat_plus_afc_hz", "bias_hz"
        )

    def test_measurement_defaults(self):
        m = BfoMeasurement(1.0, Channel.T, MessageType.LOGON_ACK, 142.0)
        assert (m.bto_us, m.ber, m.cn0_dbhz, m.signal_db) == (None, 0.0, 0.0, None)
        assert tuple(m) == (1.0, Channel.T, MessageType.LOGON_ACK, 142.0, None, 0.0, 0.0, None)

    def test_keyword_construction_matches_positional(self):
        assert EcefVector(z=3.0, x=1.0, y=2.0) == EcefVector(1.0, 2.0, 3.0)
        assert burst(signal_db=-3.5, ber=0.01, bto_us=15000.0, cn0_dbhz=41.0) == BfoMeasurement(
            10.0, Channel.R, MessageType.DATA, 100.0, 15000.0, 0.01, 41.0, -3.5
        )
        s = sat_state()
        assert SatelliteState(velocity=s.velocity, position=s.position) == s
        assert BfoTerms(bias_hz=5.0, sat_plus_afc_hz=4.0, aes_compensation_hz=3.0,
                        downlink_doppler_hz=2.0, uplink_doppler_hz=1.0) == BfoTerms(1.0, 2.0, 3.0, 4.0, 5.0)

    def test_missing_or_extra_argument_is_a_type_error(self):
        with pytest.raises(TypeError):
            EcefVector(1.0, 2.0)
        with pytest.raises(TypeError):
            EcefVector(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(TypeError):
            BfoMeasurement(1.0, Channel.R, MessageType.DATA)
        with pytest.raises(TypeError):
            burst(snr_db=3.0)

    def test_repr_names_the_fields(self):
        assert repr(EcefVector(1.0, 2.0, 3.0)) == "EcefVector(x=1.0, y=2.0, z=3.0)"
        assert repr(BfoTerms(1.0, 2.0, 3.0, 4.0, 5.0)) == (
            "BfoTerms(uplink_doppler_hz=1.0, downlink_doppler_hz=2.0, aes_compensation_hz=3.0, "
            "sat_plus_afc_hz=4.0, bias_hz=5.0)"
        )


class TestChecks:
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    @pytest.mark.parametrize("axis", range(3))
    def test_ecef_component_not_finite(self, axis, bad):
        xyz = [1.0, 2.0, 3.0]
        xyz[axis] = bad
        with pytest.raises(DomainError, match=r"^ECEF components must be finite$"):
            EcefVector(*xyz)

    @pytest.mark.parametrize("kw, text", [
        ({"bfo_hz": NAN}, "BFO must be finite"),
        ({"bfo_hz": INF}, "BFO must be finite"),
        ({"ber": NAN}, "BER must be finite and >= 0"),
        ({"ber": INF}, "BER must be finite and >= 0"),
        ({"ber": -1e-9}, "BER must be finite and >= 0"),
        ({"cn0_dbhz": NAN}, "C/N0 must be finite"),
        ({"cn0_dbhz": -INF}, "C/N0 must be finite"),
        # the checks run in this order: BFO, then BER, then C/N0
        ({"bfo_hz": NAN, "ber": -1.0, "cn0_dbhz": NAN}, "BFO must be finite"),
        ({"ber": -1.0, "cn0_dbhz": NAN}, "BER must be finite and >= 0"),
    ])
    def test_measurement_checks(self, kw, text):
        with pytest.raises(DomainError, match=f"^{text}$"):
            burst(**kw)

    def test_replace_runs_the_checks(self):
        with pytest.raises(DomainError, match="ECEF components must be finite"):
            EcefVector(1.0, 2.0, 3.0)._replace(y=NAN)
        with pytest.raises(DomainError, match="BER must be finite and >= 0"):
            burst()._replace(ber=-1.0)
        assert burst()._replace(bfo_hz=142.0) == burst(bfo_hz=142.0)

    def test_interpolated_state_not_finite(self):
        # Finite rows whose Hermite blend overflows: the state's own check fires.
        fast = [1.5e308, 0.0, 0.0]
        table = EphemerisTable([0.0, 10.0], [[GEO_RADIUS_M, 0.0, 0.0]] * 2, [fast, fast])
        knots = r"\(ephemeris knots 0\.0 and 10\.0\)"
        with pytest.raises(DomainError, match=rf"^ECEF components must be finite at t=5\.0 {knots}$"):
            satellite_state_at(5.0, table)

    def test_interpolated_state_holds_vectors(self, ephemeris):
        t = ephemeris.span[0] + 1234.5
        state = satellite_state_at(t, ephemeris)
        assert type(state) is SatelliteState
        assert type(state.position) is EcefVector and type(state.velocity) is EcefVector


class TestImmutable:
    @pytest.mark.parametrize("value", every_type(), ids=lambda v: type(v).__name__)
    def test_assigning_a_field_raises(self, value):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 0.0)

    @pytest.mark.parametrize("value", every_type(), ids=lambda v: type(v).__name__)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.extra = 1.0


class TestEqualityAndHash:
    @pytest.mark.parametrize("value", every_type(), ids=lambda v: type(v).__name__)
    def test_by_value(self, value):
        twin = pickle.loads(pickle.dumps(value))
        assert twin is not value and type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert len({value, twin}) == 1

    def test_different_values_differ(self):
        assert EcefVector(1.0, 2.0, 3.0) != EcefVector(1.0, 2.0, 3.5)
        assert burst() != burst(cn0_dbhz=1.0)
        assert BfoTerms(1.0, 2.0, 3.0, 4.0, 5.0) != BfoTerms(1.0, 2.0, 3.0, 4.0, 6.0)

    def test_equal_to_a_plain_tuple_of_the_same_items(self):
        # A tuple type equals any tuple with the same items, with the same
        # hash. This is kept, not hidden by an __eq__ by type.
        v = EcefVector(1, 2, 3)
        assert v == (1, 2, 3) and hash(v) == hash((1, 2, 3))
        terms = BfoTerms(1.0, 2.0, 3.0, 4.0, 5.0)
        assert terms == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert hash(terms) == hash((1.0, 2.0, 3.0, 4.0, 5.0))
        slot = NominalSlot()
        assert nominal_satellite_position(slot) == slot.ecef

    def test_never_equal_to_a_dataclass(self):
        assert EcefVector(1.0, 2.0, 3.0) != GeodeticPosition(1.0, 2.0, 3.0)
        assert GeodeticPosition(1.0, 2.0, 3.0) != EcefVector(1.0, 2.0, 3.0)


class TestVectorArithmetic:
    def test_add_sub_mul_are_vector_operations(self):
        v, w = EcefVector(1.0, 2.0, 3.0), EcefVector(10.0, 20.0, 30.0)
        for result, want in [
            (v + w, (11.0, 22.0, 33.0)),
            (w - v, (9.0, 18.0, 27.0)),
            (v * 2, (2.0, 4.0, 6.0)),
            (2 * v, (2.0, 4.0, 6.0)),
            (v * 0.5, (0.5, 1.0, 1.5)),
            (-1.0 * v, (-1.0, -2.0, -3.0)),
            (np.float64(2.0) * v, (2.0, 4.0, 6.0)),
            (v * np.float64(2.0), (2.0, 4.0, 6.0)),
        ]:
            assert type(result) is EcefVector
            assert result == want

    def test_arithmetic_result_is_checked(self):
        with pytest.raises(DomainError, match="ECEF components must be finite"):
            EcefVector(1e308, 0.0, 0.0) * 10.0

    def test_dot_norm_as_tuple(self):
        v = EcefVector(3.0, 4.0, 12.0)
        assert v.dot(EcefVector(1.0, 1.0, 1.0)) == 19.0
        assert v.norm() == 13.0
        assert type(v.as_tuple()) is tuple and v.as_tuple() == (3.0, 4.0, 12.0)

    def test_plain_tuple_on_the_left_concatenates(self):
        # The one tuple operation a vector cannot take over: a plain tuple's
        # own + runs first.
        assert (0.0,) + EcefVector(1.0, 2.0, 3.0) == (0.0, 1.0, 2.0, 3.0)

    def test_unpacks_as_x_y_z(self):
        x, y, z = EcefVector(1.0, 2.0, 3.0)
        position, velocity = sat_state()
        assert (x, y, z) == (1.0, 2.0, 3.0)
        assert (position, velocity) == (sat_state().position, sat_state().velocity)


class TestBfoTerms:
    def test_total_and_dict(self):
        terms = BfoTerms(10.0, 5.0, -3.0, 2.0, 150.0)
        assert terms.total_hz == 164.0
        assert list(terms.as_dict().items()) == list(zip(BfoTerms._fields, terms))
        assert type(terms.as_dict()) is dict

    def test_batch_terms_hold_arrays(self, analysis_config, ephemeris, corrections):
        cfg = analysis_config
        t = cfg.parse_time("00:11Z")
        p = cfg.arc_crossing
        tracks = np.array([0.0, 90.0, 185.0])
        terms = predict_bfo_batch(
            p.latitude_deg, p.longitude_deg, p.altitude_m, 231.5, tracks, 0.0,
            t, satellite_state_at(t, ephemeris), corrections, cfg.bias_hz, cfg.channel, cfg.slot,
        )
        assert isinstance(terms, BfoTerms)
        assert isinstance(terms.uplink_doppler_hz, np.ndarray) and terms.uplink_doppler_hz.shape == (3,)
        assert isinstance(terms.downlink_doppler_hz, float)
        assert terms.total_hz.shape == (3,)
        assert np.array_equal(terms.as_dict()["aes_compensation_hz"], terms.aes_compensation_hz)


class TestNonFiniteDataclassFields:
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    @pytest.mark.parametrize("make, field", [
        (lambda v: ChannelConfig(uplink_hz=v), "uplink_hz"),
        (lambda v: ChannelConfig(downlink_hz=v), "downlink_hz"),
        (lambda v: NoiseBounds(v, 1.0), "lower_hz"),
        (lambda v: NoiseBounds(-1.0, v), "upper_hz"),
        (lambda v: NominalSlot(longitude_deg=v), "longitude_deg"),
        (lambda v: NominalSlot(latitude_deg=v), "latitude_deg"),
        (lambda v: NominalSlot(radius_m=v), "radius_m"),
    ])
    def test_refused_at_construction_naming_the_field(self, make, field, bad):
        with pytest.raises(DomainError, match=f"^{field} {bad} is not finite$"):
            make(bad)

    def test_finite_checks_keep_their_texts(self):
        with pytest.raises(DomainError, match="^carrier frequencies must be positive$"):
            ChannelConfig(uplink_hz=-1.0)
        with pytest.raises(DomainError, match="^noise bounds out of order$"):
            NoiseBounds(1.0, -1.0)
