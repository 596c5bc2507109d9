"""The value types are immutable tuple types.

The per-burst types ``BfoMeasurement``, ``EcefVector``, ``SatelliteState``
and ``BfoTerms`` are ``NamedTuple`` types, and so are the 13 types built
once per run (``AnalysisConfig``, ``LogRecords``, ``ErrorStats``,
``TrendModel``, ``LogonSequence``, ``DriftBounds``, ``BfoRange``,
``DescentRates``, ``DescentBoundsTable``, ``AccelerationEstimate``,
``HypothesisBounds``, ``DescentAnalysis``, ``SyntheticGeoModel``). These
tests pin what they keep from the frozen dataclasses they replace (field
names and order, defaults, keyword construction, every check and its text,
checks on ``_replace``, immutability, equality and hash by value, the
``repr`` text) and what a tuple type adds: equality with a plain tuple of
the same items. ``EcefVector`` is a checked ``(x, y, z)`` and nothing more:
``+`` and ``*`` are the tuple operations. No field annotation of any of
these types is a string, which ``NamedTuple`` would compile at import.

The six types of the forward model's inputs and the noise bounds
(``GeodeticPosition``, ``GroundKinematics``, ``AircraftState``,
``ChannelConfig``, ``NominalSlot``, ``NoiseBounds``) were frozen
dataclasses too, and get the same pins. ``ChannelConfig``, ``NoiseBounds``
and ``NominalSlot`` refuse a non-finite field when built, naming the field.
"""

import importlib
import math
import pickle
import pkgutil
from datetime import date
from pathlib import PurePosixPath
from typing import ForwardRef

import numpy as np
import pytest

import bfokit
from bfokit.bfo_model import AircraftState, BfoTerms, ChannelConfig, predict_bfo_batch
from bfokit.config import AnalysisConfig
from bfokit.descent import (
    AccelerationEstimate,
    BfoRange,
    DescentAnalysis,
    DescentBoundsTable,
    DescentRates,
    Hypothesis,
    HypothesisBounds,
)
from bfokit.errors import DomainError
from bfokit.geodesy import EcefVector, GeodeticPosition, GroundKinematics
from bfokit.ingest import LogRecords
from bfokit.satellite import (
    GEO_RADIUS_M,
    EphemerisTable,
    NominalSlot,
    SatelliteState,
    SyntheticGeoModel,
    nominal_satellite_position,
    satellite_state_at,
)
from bfokit.stats import BfoMeasurement, Channel, ErrorStats, MessageType, NoiseBounds
from bfokit.timestamps import parse_time_utc
from bfokit.trend import TrendModel
from bfokit.warmup import CompensationMode, DriftBounds, LogonSequence

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
        assert EcefVector(1.0, 2.0, 3.0) == GeodeticPosition(1.0, 2.0, 3.0)
        assert GeodeticPosition(1.0, 2.0, 3.0) == EcefVector(1.0, 2.0, 3.0)


class TestEcefVectorIsAPlainTuple:
    def test_plus_and_times_are_the_tuple_operations(self):
        v, w = EcefVector(1.0, 2.0, 3.0), EcefVector(10.0, 20.0, 30.0)
        assert type(v + w) is tuple and v + w == (1.0, 2.0, 3.0, 10.0, 20.0, 30.0)
        assert type(v * 2) is tuple and v * 2 == 2 * v == (1.0, 2.0, 3.0) * 2
        assert (0.0,) + v == (0.0, 1.0, 2.0, 3.0)
        with pytest.raises(TypeError):
            w - v
        assert not any(hasattr(v, name) for name in ("dot", "norm", "as_tuple"))

    def test_unpacks_as_x_y_z(self):
        x, y, z = EcefVector(1.0, 2.0, 3.0)
        position, velocity = sat_state()
        assert (x, y, z) == (1.0, 2.0, 3.0)
        assert (position, velocity) == (sat_state().position, sat_state().velocity)


class TestBfoTerms:
    def test_total_and_dict(self):
        terms = BfoTerms(10.0, 5.0, -3.0, 2.0, 150.0)
        assert terms.total_hz == 164.0
        assert list(terms._asdict().items()) == list(zip(BfoTerms._fields, terms))
        assert type(terms._asdict()) is dict

    def test_batch_terms_hold_arrays(self, analysis_config, ephemeris, corrections):
        cfg = analysis_config
        t = parse_time_utc("00:11Z", cfg.reference_date)
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
        assert np.array_equal(terms._asdict()["aes_compensation_hz"], terms.aes_compensation_hz)


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


# ---------------------------------------------------------------------------
# the types built once per run

REQUEST = BfoMeasurement(0.0, Channel.R, MessageType.LOGON_REQUEST, 142.0)
ACK = BfoMeasurement(8.0, Channel.R, MessageType.LOGON_ACK, 140.0)
RATES = DescentRates((100.0, 200.0), (-300.0, 0.0))
TABLE = DescentBoundsTable((1.0, 9.0), (RATES, RATES))


def once_per_run():
    """One value of each type, built positionally."""
    return [
        AnalysisConfig(PurePosixPath("log.csv"), PurePosixPath("eph.csv"), PurePosixPath("corr.csv"),
                       PurePosixPath("logon.csv"), None, ChannelConfig(), NominalSlot(), NoiseBounds(-7.0, 7.0),
                       182.0, -2.0, GeodeticPosition(-38.67, 85.11), (0.0, 3600.0), 150.0, date(2014, 3, 7),
                       None, 1.21),
        LogRecords((REQUEST,), ("# log",), ((3, "bad row"),)),
        ErrorStats(0.5, 4.3, -7.0, 7.0, 12),
        TrendModel(2.0, 252.0, (0.0, 3600.0), 0.5),
        LogonSequence("7", (REQUEST, ACK), CompensationMode.CLOSED_LOOP, (1.0, 2.5), "note", True),
        DriftBounds((17.0, 136.0), (17.0, 130.0), (0.0, 6.0)),
        BfoRange(-1.5, 2.0),
        RATES,
        TABLE,
        AccelerationEstimate(-12.5, -0.0635, -0.00648),
        HypothesisBounds(None, (BfoRange(1.0, 2.0), BfoRange(3.0, 4.0)), TABLE),
        DescentAnalysis((1.0, 9.0), (182.0, -2.0), {Hypothesis.OTHER_CAUSE: None}, None, None),
        SyntheticGeoModel(64.0, 1.5, 10.0, 0.001, 20.0, 4.2e7),
    ]


def type_name(value):
    return type(value).__name__


FIELDS = {
    AnalysisConfig: (
        "log_csv", "ephemeris_csv", "correction_csv", "logon_sequence_csv", "logon_meta_json", "channel", "slot",
        "noise", "expected_south_hz", "expected_north_hz", "arc_crossing", "fit_window", "bias_hz",
        "reference_date", "tarmac", "sensitivity_hz_per_100fpm",
    ),
    LogRecords: ("measurements", "provenance", "rejected"),
    ErrorStats: ("mean_hz", "std_hz", "min_hz", "max_hz", "count"),
    TrendModel: ("slope_hz_per_hour", "intercept_hz", "fit_window", "residual_rms_hz"),
    LogonSequence: (
        "id", "measurements", "compensation_mode", "outage_bounds_min", "notes", "settled_proxy"
    ),
    DriftBounds: ("logon_minus_settled", "ack_minus_settled", "ack_below_logon"),
    BfoRange: ("lower_hz", "upper_hz"),
    DescentRates: ("south_fpm", "north_fpm"),
    DescentBoundsTable: ("times", "rates"),
    AccelerationEstimate: ("fpm_per_s", "mps2", "g"),
    HypothesisBounds: ("drift_removed", "noise_extended", "table"),
    DescentAnalysis: ("times", "recorded", "hypotheses", "combined", "acceleration"),
    SyntheticGeoModel: ("longitude_deg", "inclination_deg", "node_time", "eccentricity", "perigee_time", "radius_m"),
}

# The dataclass repr of each value of once_per_run(), as the dataclasses these types replace printed it;
# LogonSequence's text has since lost its logon_time field, now read from the first measurement.
BURST = ("BfoMeasurement(timestamp={}, channel=<Channel.R: 'R'>, message_type=<MessageType.{}>, bfo_hz={}, "
         "bto_us=None, ber=0.0, cn0_dbhz=0.0, signal_db=None)")
REQUEST_TEXT = BURST.format(0.0, "LOGON_REQUEST: 'logon_request'", 142.0)
ACK_TEXT = BURST.format(8.0, "LOGON_ACK: 'logon_ack'", 140.0)
RATES_TEXT = "DescentRates(south_fpm=(100.0, 200.0), north_fpm=(-300.0, 0.0))"
TABLE_TEXT = f"DescentBoundsTable(times=(1.0, 9.0), rates=({RATES_TEXT}, {RATES_TEXT}))"
REPRS = [
    "AnalysisConfig(log_csv=PurePosixPath('log.csv'), ephemeris_csv=PurePosixPath('eph.csv'), "
    "correction_csv=PurePosixPath('corr.csv'), logon_sequence_csv=PurePosixPath('logon.csv'), "
    "logon_meta_json=None, channel=ChannelConfig(uplink_hz=1646652500.0, downlink_hz=3615000000.0, "
    "ges_position=GeodeticPosition(latitude_deg=-31.8044, longitude_deg=115.8872, altitude_m=22.0)), "
    "slot=NominalSlot(longitude_deg=64.5, latitude_deg=0.0, radius_m=42164169.0), "
    "noise=NoiseBounds(lower_hz=-7.0, upper_hz=7.0), expected_south_hz=182.0, expected_north_hz=-2.0, "
    "arc_crossing=GeodeticPosition(latitude_deg=-38.67, longitude_deg=85.11, altitude_m=0.0), "
    "fit_window=(0.0, 3600.0), bias_hz=150.0, reference_date=datetime.date(2014, 3, 7), tarmac=None, "
    "sensitivity_hz_per_100fpm=1.21)",
    f"LogRecords(measurements=({REQUEST_TEXT},), provenance=('# log',), rejected=((3, 'bad row'),))",
    "ErrorStats(mean_hz=0.5, std_hz=4.3, min_hz=-7.0, max_hz=7.0, count=12)",
    "TrendModel(slope_hz_per_hour=2.0, intercept_hz=252.0, fit_window=(0.0, 3600.0), residual_rms_hz=0.5)",
    f"LogonSequence(id='7', measurements=({REQUEST_TEXT}, {ACK_TEXT}), "
    "compensation_mode=<CompensationMode.CLOSED_LOOP: 'closed_loop'>, outage_bounds_min=(1.0, 2.5), "
    "notes='note', settled_proxy=True)",
    "DriftBounds(logon_minus_settled=(17.0, 136.0), ack_minus_settled=(17.0, 130.0), ack_below_logon=(0.0, 6.0))",
    "BfoRange(lower_hz=-1.5, upper_hz=2.0)",
    RATES_TEXT,
    TABLE_TEXT,
    "AccelerationEstimate(fpm_per_s=-12.5, mps2=-0.0635, g=-0.00648)",
    "HypothesisBounds(drift_removed=None, noise_extended=(BfoRange(lower_hz=1.0, upper_hz=2.0), "
    f"BfoRange(lower_hz=3.0, upper_hz=4.0)), table={TABLE_TEXT})",
    "DescentAnalysis(times=(1.0, 9.0), recorded=(182.0, -2.0), "
    "hypotheses={<Hypothesis.OTHER_CAUSE: 'other_cause'>: None}, combined=None, acceleration=None)",
    "SyntheticGeoModel(longitude_deg=64.0, inclination_deg=1.5, node_time=10.0, eccentricity=0.001, "
    "perigee_time=20.0, radius_m=42000000.0)",
]


def logon(**kw):
    fields = {"id": "7", "measurements": (REQUEST, ACK),
              "compensation_mode": CompensationMode.OPEN_LOOP, **kw}
    return LogonSequence(**fields)


# Each check of a once-per-run type, with the value that fails it and the text it raises.
CHECKS = [
    (lambda: logon(measurements=()), "log-on 7: empty sequence"),
    (lambda: logon(measurements=(REQUEST, ACK._replace(timestamp=-1.0))), "log-on 7: measurements not time-ordered"),
    (lambda: logon(measurements=(ACK,)), "log-on 7: first message must be a log-on request"),
    (lambda: logon(outage_bounds_min=(3.0, 2.0)), "log-on 7: outage bounds out of order"),
    (lambda: DriftBounds((2.0, 1.0), (0.0, 1.0), (0.0, 1.0)), "drift bounds out of order"),
    (lambda: DriftBounds((0.0, 1.0), (2.0, 1.0), (0.0, 1.0)), "drift bounds out of order"),
    (lambda: DriftBounds((0.0, 1.0), (0.0, 1.0), (2.0, 1.0)), "drift bounds out of order"),
    (lambda: BfoRange(2.0, 1.0), "BFO range out of order"),
    (lambda: DescentRates((2.0, 1.0), (0.0, 1.0)), "descent-rate bounds out of order"),
    (lambda: DescentRates((0.0, 1.0), (2.0, 1.0)), "descent-rate bounds out of order"),
    (lambda: DescentBoundsTable((1.0, 9.0), (RATES,)), "times and rates must match"),
]

# For each checked type, a value and a _replace that fails its check.
REPLACES = [
    (logon(), {"measurements": ()}, "log-on 7: empty sequence"),
    (logon(), {"measurements": (ACK,)}, "log-on 7: first message must be a log-on request"),
    (logon(), {"outage_bounds_min": (3.0, 2.0)}, "log-on 7: outage bounds out of order"),
    (DriftBounds((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), {"ack_below_logon": (2.0, 1.0)}, "drift bounds out of order"),
    (BfoRange(1.0, 2.0), {"upper_hz": 0.5}, "BFO range out of order"),
    (RATES, {"north_fpm": (2.0, 1.0)}, "descent-rate bounds out of order"),
    (TABLE, {"rates": ()}, "times and rates must match"),
]


class TestOncePerRunTypes:
    def test_covers_every_type_once(self):
        assert [type(v) for v in once_per_run()] == list(FIELDS)

    @pytest.mark.parametrize("value", once_per_run(), ids=type_name)
    def test_field_names_and_order(self, value):
        assert value._fields == FIELDS[type(value)]
        assert type(value).__name__ == type(value).__qualname__

    def test_defaults(self):
        seq = LogonSequence("7", (REQUEST,), CompensationMode.OPEN_LOOP)
        assert (seq.outage_bounds_min, seq.notes, seq.settled_proxy) == (None, "", False)
        assert tuple(SyntheticGeoModel()) == (64.5, 1.65, 0.0, 0.0, 0.0, GEO_RADIUS_M)
        assert SyntheticGeoModel(node_time=5.0) == (64.5, 1.65, 5.0, 0.0, 0.0, GEO_RADIUS_M)

    @pytest.mark.parametrize("value", once_per_run(), ids=type_name)
    def test_keyword_construction_matches_positional(self, value):
        by_keyword = type(value)(**dict(reversed(value._asdict().items())))
        assert type(by_keyword) is type(value) and by_keyword == value
        assert type(value)(*value) == value

    @pytest.mark.parametrize("value", once_per_run(), ids=type_name)
    def test_missing_or_extra_argument_is_a_type_error(self, value):
        if type(value) is not SyntheticGeoModel:  # every field of the orbit has a default
            with pytest.raises(TypeError):
                type(value)()
        with pytest.raises(TypeError):
            type(value)(*value, 0.0)
        with pytest.raises(TypeError):
            type(value)(*value, extra=0.0)

    @pytest.mark.parametrize("make, text", CHECKS)
    def test_checks_keep_their_texts(self, make, text):
        with pytest.raises(DomainError, match=f"^{text}$"):
            make()

    @pytest.mark.parametrize("value, changes, text", REPLACES)
    def test_replace_runs_the_checks(self, value, changes, text):
        with pytest.raises(DomainError, match=f"^{text}$"):
            value._replace(**changes)

    @pytest.mark.parametrize("value", once_per_run(), ids=type_name)
    def test_replace_keeps_the_type_and_the_other_fields(self, value):
        name = value._fields[0]
        copy = value._replace(**{name: value[0]})
        assert type(copy) is type(value) and copy == value and copy is not value

    @pytest.mark.parametrize("value", once_per_run(), ids=type_name)
    def test_assigning_a_field_raises(self, value):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 0.0)
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.extra = 1.0

    @pytest.mark.parametrize("value, text", list(zip(once_per_run(), REPRS)), ids=map(type_name, once_per_run()))
    def test_repr_is_the_dataclass_text(self, value, text):
        assert repr(value) == text

    @pytest.mark.parametrize("value", once_per_run(), ids=type_name)
    def test_equal_by_value_and_to_a_plain_tuple(self, value):
        twin = pickle.loads(pickle.dumps(value))
        assert twin is not value and type(twin) is type(value) and twin == value
        assert value == tuple(value) and tuple(value) == value
        if type(value) is not DescentAnalysis:  # its hypotheses are a dict, as they were
            assert hash(twin) == hash(value) == hash(tuple(value))

    def test_methods_work_on_the_tuple_types(self):
        _, _, _, trend, seq, drift, _, rates, table, *_, model = once_per_run()
        assert seq.logon_time == REQUEST.timestamp
        assert seq._replace(measurements=(ACK._replace(message_type=MessageType.LOGON_REQUEST),)).logon_time == 8.0
        assert trend.value_at(1800.0) == 253.0
        assert drift.as_dict() == {"logon_minus_settled_hz": [17.0, 136.0], "ack_minus_settled_hz": [17.0, 130.0],
                                   "ack_below_logon_hz": [0.0, 6.0]}
        assert rates.outer_fpm == (-300.0, 200.0)
        assert table.row(9.0) is rates
        assert model.state_at(0.0) == SyntheticGeoModel(*model).state_at(0.0)


# ---------------------------------------------------------------------------
# the inputs of the forward model, and the noise bounds

KINEMATICS = GroundKinematics(231.5, 185.0, -2.5)


def model_inputs():
    """One value of each type, built positionally."""
    return [
        GeodeticPosition(-38.67, 85.11, 10668.0),
        KINEMATICS,
        AircraftState(GeodeticPosition(-38.67, 85.11), KINEMATICS, 1394238569.0),
        ChannelConfig(1.6e9, 3.6e9, GeodeticPosition(51.5, -0.1, 50.0)),
        NominalSlot(64.0, 0.5, 4.2e7),
        NoiseBounds(-28.0, 18.0),
    ]


INPUT_FIELDS = {
    GeodeticPosition: ("latitude_deg", "longitude_deg", "altitude_m"),
    GroundKinematics: ("ground_speed_mps", "track_angle_deg", "vertical_rate_mps"),
    AircraftState: ("position", "kinematics", "timestamp"),
    ChannelConfig: ("uplink_hz", "downlink_hz", "ges_position"),
    NominalSlot: ("longitude_deg", "latitude_deg", "radius_m"),
    NoiseBounds: ("lower_hz", "upper_hz"),
}

# Each check of these types, in the order they run, with the value that fails it and its text.
INPUT_CHECKS = [
    (lambda: GeodeticPosition(90.5, 181.0, NAN), r"latitude 90\.5 outside \[-90, 90\]"),
    (lambda: GeodeticPosition(NAN, 0.0), r"latitude nan outside \[-90, 90\]"),
    (lambda: GeodeticPosition(0.0, -180.0, NAN), r"longitude -180\.0 outside \(-180, 180\]"),
    (lambda: GeodeticPosition(0.0, 180.0, INF), "altitude must be finite"),
    (lambda: GroundKinematics(NAN, 400.0, INF), "ground_speed_mps nan is not finite"),
    (lambda: GroundKinematics(-1.0, 400.0, INF), "vertical_rate_mps inf is not finite"),
    (lambda: GroundKinematics(-1.0, 400.0), "ground speed must be >= 0"),
    (lambda: GroundKinematics(0.0, 360.0), r"track angle 360\.0 outside \[0, 360\)"),
    (lambda: GroundKinematics(0.0, NAN), r"track angle nan outside \[0, 360\)"),
    (lambda: ChannelConfig(-1.0, NAN), "downlink_hz nan is not finite"),
    (lambda: ChannelConfig(1.6e9, 0.0), "carrier frequencies must be positive"),
    (lambda: NominalSlot(INF, NAN), "longitude_deg inf is not finite"),
    (lambda: NoiseBounds(1.0, -INF), "upper_hz -inf is not finite"),
    (lambda: NoiseBounds(1.0, -1.0), "noise bounds out of order"),
]

INPUT_REPLACES = [
    (GeodeticPosition(1.0, 2.0), {"latitude_deg": -91.0}, r"latitude -91\.0 outside \[-90, 90\]"),
    (GeodeticPosition(1.0, 2.0), {"altitude_m": NAN}, "altitude must be finite"),
    (KINEMATICS, {"ground_speed_mps": -1.0}, "ground speed must be >= 0"),
    (KINEMATICS, {"track_angle_deg": -1.0}, r"track angle -1\.0 outside \[0, 360\)"),
    (ChannelConfig(), {"uplink_hz": 0.0}, "carrier frequencies must be positive"),
    (NominalSlot(), {"radius_m": INF}, "radius_m inf is not finite"),
    (NoiseBounds(-1.0, 1.0), {"lower_hz": 2.0}, "noise bounds out of order"),
]

# repr and hash of each value as the frozen dataclasses these types replace printed them (64-bit CPython)
GES_TEXT = "GeodeticPosition(latitude_deg=-31.8044, longitude_deg=115.8872, altitude_m=22.0)"
CHANNEL_TEXT = f"ChannelConfig(uplink_hz=1646652500.0, downlink_hz=3615000000.0, ges_position={GES_TEXT})"
SLOT_TEXT = "NominalSlot(longitude_deg=64.5, latitude_deg=0.0, radius_m=42164169.0)"
NOISE_TEXT = "NoiseBounds(lower_hz=-28.0, upper_hz=18.0)"
CROSSING_TEXT = "GeodeticPosition(latitude_deg=-38.67, longitude_deg=85.11, altitude_m=0.0)"
TARMAC_TEXT = "GeodeticPosition(latitude_deg=2.7456, longitude_deg=101.7099, altitude_m=21.0)"
PARENT_TEXTS = [
    ("ChannelConfig()", lambda cfg: ChannelConfig(), CHANNEL_TEXT, -2245147252205248467),
    ("NominalSlot()", lambda cfg: NominalSlot(), SLOT_TEXT, 8040551998519626620),
    ("NoiseBounds", lambda cfg: NoiseBounds(-28.0, 18.0), NOISE_TEXT, -7429955809684300355),
    ("GeodeticPosition", lambda cfg: GeodeticPosition(1.0, 2.0),
     "GeodeticPosition(latitude_deg=1.0, longitude_deg=2.0, altitude_m=0.0)", -3194506032951434905),
    ("GroundKinematics", lambda cfg: GroundKinematics(231.5, 185.0),
     "GroundKinematics(ground_speed_mps=231.5, track_angle_deg=185.0, vertical_rate_mps=0.0)",
     -6449349850221385329),
    ("config channel", lambda cfg: cfg.channel, CHANNEL_TEXT, -2245147252205248467),
    ("config ges", lambda cfg: cfg.channel.ges_position, GES_TEXT, 7605093571147727929),
    ("config slot", lambda cfg: cfg.slot, SLOT_TEXT, 8040551998519626620),
    ("config noise", lambda cfg: cfg.noise, NOISE_TEXT, -7429955809684300355),
    ("config arc crossing", lambda cfg: cfg.arc_crossing, CROSSING_TEXT, -4703726388020714196),
    ("config tarmac", lambda cfg: cfg.tarmac, TARMAC_TEXT, -4500351880867647939),
    ("state at the crossing", lambda cfg: AircraftState(cfg.arc_crossing, KINEMATICS, 1394238569.0),
     f"AircraftState(position={CROSSING_TEXT}, kinematics=GroundKinematics(ground_speed_mps=231.5, "
     "track_angle_deg=185.0, vertical_rate_mps=-2.5), timestamp=1394238569.0)", -6444393545176767993),
    ("state on the tarmac", lambda cfg: AircraftState(cfg.tarmac, GroundKinematics(0.0, 0.0, 0.0), 0.0),
     f"AircraftState(position={TARMAC_TEXT}, kinematics=GroundKinematics(ground_speed_mps=0.0, "
     "track_angle_deg=0.0, vertical_rate_mps=0.0), timestamp=0.0)", -6189267137358318849),
]


class TestModelInputTypes:
    def test_covers_every_type_once(self):
        assert [type(v) for v in model_inputs()] == list(INPUT_FIELDS)

    @pytest.mark.parametrize("value", model_inputs(), ids=type_name)
    def test_field_names_and_order(self, value):
        assert value._fields == INPUT_FIELDS[type(value)]
        assert type(value).__name__ == type(value).__qualname__

    def test_defaults(self):
        assert GeodeticPosition(1.0, 2.0) == (1.0, 2.0, 0.0)
        assert GroundKinematics(231.5, 185.0) == (231.5, 185.0, 0.0)
        assert ChannelConfig() == (1646.6525e6, 3615.0e6, (-31.8044, 115.8872, 22.0))
        assert ChannelConfig(downlink_hz=3.6e9) == (1646.6525e6, 3.6e9, (-31.8044, 115.8872, 22.0))
        assert NominalSlot() == (64.5, 0.0, GEO_RADIUS_M)
        assert NominalSlot(radius_m=4.2e7) == (64.5, 0.0, 4.2e7)

    @pytest.mark.parametrize("value", model_inputs(), ids=type_name)
    def test_keyword_construction_matches_positional(self, value):
        by_keyword = type(value)(**dict(reversed(value._asdict().items())))
        assert type(by_keyword) is type(value) and by_keyword == value
        assert type(value)(*value) == value

    @pytest.mark.parametrize("value", model_inputs(), ids=type_name)
    def test_missing_or_extra_argument_is_a_type_error(self, value):
        if type(value) not in (ChannelConfig, NominalSlot):  # every field of these has a default
            with pytest.raises(TypeError):
                type(value)()
        with pytest.raises(TypeError):
            type(value)(*value, 0.0)
        with pytest.raises(TypeError):
            type(value)(*value, extra=0.0)

    @pytest.mark.parametrize("make, text", INPUT_CHECKS)
    def test_checks_keep_their_texts_and_order(self, make, text):
        with pytest.raises(DomainError, match=f"^{text}$"):
            make()

    @pytest.mark.parametrize("value, changes, text", INPUT_REPLACES)
    def test_replace_runs_the_checks(self, value, changes, text):
        with pytest.raises(DomainError, match=f"^{text}$"):
            value._replace(**changes)

    @pytest.mark.parametrize("value", model_inputs(), ids=type_name)
    def test_replace_keeps_the_type_and_the_other_fields(self, value):
        name = value._fields[-1]
        copy = value._replace(**{name: value[-1]})
        assert type(copy) is type(value) and copy == value and copy is not value

    @pytest.mark.parametrize("value", model_inputs(), ids=type_name)
    def test_assigning_a_field_raises(self, value):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 0.0)
        with pytest.raises(AttributeError):
            value.extra = 1.0
        # only the two types with a held position have an instance dict
        assert hasattr(value, "__dict__") == (type(value) in (ChannelConfig, NominalSlot))

    @pytest.mark.parametrize("value", model_inputs(), ids=type_name)
    def test_pickles_by_value(self, value):
        twin = pickle.loads(pickle.dumps(value))
        assert twin is not value and type(twin) is type(value) and twin == value
        assert hash(twin) == hash(value) == hash(tuple(value))

    def test_held_positions_survive_a_pickle(self):
        cfg, slot = ChannelConfig(), NominalSlot()
        held = cfg.ges_ecef, slot.ecef
        twins = pickle.loads(pickle.dumps((cfg, slot)))
        assert (twins[0].ges_ecef, twins[1].ecef) == held

    @pytest.mark.parametrize("make, text, hashed", [c[1:] for c in PARENT_TEXTS], ids=[c[0] for c in PARENT_TEXTS])
    def test_repr_and_hash_are_the_dataclass_ones(self, analysis_config, make, text, hashed):
        value = make(analysis_config)
        assert repr(value) == text
        assert hash(value) == hashed


# ---------------------------------------------------------------------------
# every tuple type of the package

def test_no_tuple_type_holds_a_string_annotation():
    # NamedTuple compiles a string annotation into a ForwardRef when the class is made, on every cold import.
    types = {}  # qualified name: each NamedTuple type the package defines, and each fields base
    for info in pkgutil.iter_modules(bfokit.__path__):
        for value in vars(importlib.import_module(f"bfokit.{info.name}")).values():
            if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields"):
                types.update((f"{c.__module__}.{c.__qualname__}", c) for c in value.__mro__
                             if c.__module__.startswith("bfokit."))
    assert {"bfokit.config.AnalysisConfig", "bfokit.warmup._LogonFields", "bfokit.geodesy._EcefFields"} <= set(types)
    strings = {name: [field for field, annotation in vars(cls).get("__annotations__", {}).items()
                      if isinstance(annotation, (str, ForwardRef))] for name, cls in types.items()}
    assert {name: fields for name, fields in strings.items() if fields} == {}
