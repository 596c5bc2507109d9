from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfokit.errors import DomainError
from bfokit.stats import BfoMeasurement, Channel, MessageType
from bfokit.warmup import (
    CompensationMode,
    LogonSequence,
    apply_compensation_scaling,
    extract_drift_bounds,
    normalize_to_ack,
)


def burst(t, msg, bfo, ber=0.0, cn0=41.7):
    return BfoMeasurement(float(t), Channel.R, MessageType(msg), float(bfo), ber=ber, cn0_dbhz=cn0)


def make_sequence(points, mode=CompensationMode.OPEN_LOOP, seq_id="x", **kw):
    ms = tuple(burst(*p) for p in points)
    return LogonSequence(
        id=seq_id, logon_time=ms[0].timestamp, measurements=ms,
        compensation_mode=mode, **kw,
    )


DECAYING = [
    (0.0, "logon_request", 150.0),
    (8.0, "logon_ack", 146.0),
    (30.0, "data", 120.0),
    (90.0, "data", 95.0),
    (150.0, "data", 88.0),
    (200.0, "data", 87.0),
]


class TestNormalizeToAck:
    def test_ack_shifts_to_zero(self):
        curve = normalize_to_ack(make_sequence(DECAYING))
        assert curve[1] == (8.0, 0.0)
        assert curve[0] == (0.0, 4.0)
        assert curve[-1] == (200.0, -59.0)

    def test_constant_sequence_all_zeros(self):
        points = [(0.0, "logon_request", 100.0), (8.0, "logon_ack", 100.0), (60.0, "data", 100.0)]
        curve = normalize_to_ack(make_sequence(points))
        assert all(v == 0.0 for _, v in curve)

    def test_exactly_one_zero_at_ack(self):
        curve = normalize_to_ack(make_sequence(DECAYING))
        zeros = [(t, v) for t, v in curve if v == 0.0]
        assert zeros == [(8.0, 0.0)]

    def test_untrusted_first_point_removed(self, logon_sequences):
        seq7 = next(s for s in logon_sequences if s.id == "7")
        curve = normalize_to_ack(seq7)
        assert len(curve) == len(seq7.measurements) - 1
        # decays from a positive offset toward a negative settled plateau
        assert curve[0][1] > 0.0
        assert curve[-1][1] < 0.0
        assert curve[-1][1] == min(v for _, v in curve)

    def test_missing_ack_rejected(self):
        points = [(0.0, "logon_request", 10.0), (5.0, "data", 9.0)]
        with pytest.raises(DomainError):
            normalize_to_ack(make_sequence(points))


class TestCompensationScaling:
    def test_closed_loop_halves(self):
        curve = [(0.0, -40.0), (10.0, 16.0)]
        assert apply_compensation_scaling(curve, CompensationMode.CLOSED_LOOP) == [
            (0.0, -20.0),
            (10.0, 8.0),
        ]

    def test_open_loop_identity(self):
        curve = [(0.0, -40.0), (10.0, 16.0)]
        assert apply_compensation_scaling(curve, CompensationMode.OPEN_LOOP) == curve

    def test_fixture_modes(self, logon_sequences):
        modes = {s.id: s.compensation_mode for s in logon_sequences}
        for seq_id in "123456":
            assert modes[seq_id] is CompensationMode.CLOSED_LOOP
        assert modes["7"] is CompensationMode.OPEN_LOOP

    def test_scaling_commutes_with_normalization(self):
        seq = make_sequence(DECAYING, mode=CompensationMode.CLOSED_LOOP)
        scaled_after = apply_compensation_scaling(normalize_to_ack(seq), seq.compensation_mode)
        # scale the raw BFOs first, then normalize: same curve (both linear)
        half = tuple(
            BfoMeasurement(m.timestamp, m.channel, m.message_type, m.bfo_hz * 0.5,
                           ber=m.ber, cn0_dbhz=m.cn0_dbhz)
            for m in seq.measurements
        )
        pre_scaled = LogonSequence(
            id="h", logon_time=seq.logon_time, measurements=half,
            compensation_mode=CompensationMode.OPEN_LOOP,
        )
        other = normalize_to_ack(pre_scaled)
        assert len(other) == len(scaled_after)
        for (t1, v1), (t2, v2) in zip(other, scaled_after):
            assert t1 == t2
            assert v1 == pytest.approx(v2, abs=1e-12)


class TestDriftBounds:
    def test_fixture_logon_minus_settled(self, logon_sequences):
        drift = extract_drift_bounds(logon_sequences)
        assert drift.logon_minus_settled == (17.0, 136.0)

    def test_fixture_ack_minus_settled(self, logon_sequences):
        drift = extract_drift_bounds(logon_sequences)
        assert drift.ack_minus_settled == (17.0, 130.0)

    def test_fixture_ack_below_logon(self, logon_sequences):
        drift = extract_drift_bounds(logon_sequences)
        assert drift.ack_below_logon == (0.0, 6.0)

    def test_constant_sequence_gives_zero_ranges(self):
        points = [
            (0.0, "logon_request", 140.0),
            (8.0, "logon_ack", 140.0),
            (90.0, "data", 140.0),
            (150.0, "data", 140.0),
        ]
        drift = extract_drift_bounds([make_sequence(points)])
        assert drift.logon_minus_settled == (0.0, 0.0)
        assert drift.ack_minus_settled == (0.0, 0.0)
        assert drift.ack_below_logon == (0.0, 0.0)

    def test_invariant_to_absolute_bfo_level(self, logon_sequences):
        base = extract_drift_bounds(logon_sequences)
        shifted_seqs = []
        for seq in logon_sequences:
            ms = tuple(
                BfoMeasurement(m.timestamp, m.channel, m.message_type, m.bfo_hz + 50.0,
                               ber=m.ber, cn0_dbhz=m.cn0_dbhz)
                for m in seq.measurements
            )
            shifted_seqs.append(
                LogonSequence(
                    id=seq.id, logon_time=seq.logon_time, measurements=ms,
                    compensation_mode=seq.compensation_mode,
                    outage_bounds_min=seq.outage_bounds_min,
                    notes=seq.notes, settled_proxy=seq.settled_proxy,
                )
            )
        shifted = extract_drift_bounds(shifted_seqs)
        assert shifted == base

    def test_unsettled_unannotated_sequence_rejected(self):
        points = [
            (0.0, "logon_request", 150.0),
            (8.0, "logon_ack", 146.0),
            (30.0, "data", 100.0),
            (45.0, "data", 60.0),
        ]
        with pytest.raises(DomainError):
            extract_drift_bounds([make_sequence(points)])

    def test_settled_proxy_annotation_accepted(self):
        points = [
            (0.0, "logon_request", 150.0),
            (8.0, "logon_ack", 146.0),
            (30.0, "data", 100.0),
            (45.0, "data", 60.0),
        ]
        drift = extract_drift_bounds([make_sequence(points, settled_proxy=True)])
        assert drift.logon_minus_settled == (90.0, 90.0)
        assert drift.ack_minus_settled == (86.0, 86.0)
        assert drift.ack_below_logon == (4.0, 4.0)

    @settings(max_examples=60, deadline=None)
    @given(order=st.permutations(range(7)))
    def test_invariant_to_the_order_of_the_sequences(self, logon_sequences, order):
        assert len(logon_sequences) == 7
        permuted = [logon_sequences[i] for i in order]
        assert extract_drift_bounds(permuted) == extract_drift_bounds(logon_sequences)

    def test_every_subset_of_the_sequences_lies_inside_the_full_ranges(self, logon_sequences):
        full = extract_drift_bounds(logon_sequences).as_dict()
        for size in range(1, len(logon_sequences) + 1):
            for subset in combinations(logon_sequences, size):
                for key, (lo, hi) in extract_drift_bounds(subset).as_dict().items():
                    assert full[key][0] <= lo <= hi <= full[key][1], ([s.id for s in subset], key)

    def test_closed_loop_statistics_are_half_the_open_loop_ones(self, logon_sequences):
        for seq in logon_sequences:
            open_loop, closed_loop = (
                extract_drift_bounds([seq._replace(compensation_mode=mode)]).as_dict()
                for mode in (CompensationMode.OPEN_LOOP, CompensationMode.CLOSED_LOOP)
            )
            assert closed_loop == {key: [v / 2 for v in pair] for key, pair in open_loop.items()}, seq.id

    def test_fixture_outage_bounds_carried(self, logon_sequences):
        by_id = {s.id: s for s in logon_sequences}
        assert by_id["1"].outage_bounds_min == (381.0, 442.0)
        assert by_id["7"].outage_bounds_min == (20.0, 78.0)
        assert "untrustworthy" in by_id["7"].notes


class TestSequenceValidation:
    def test_first_message_must_be_logon_request(self):
        points = [(0.0, "data", 10.0), (5.0, "logon_ack", 9.0)]
        with pytest.raises(DomainError):
            make_sequence(points)

    def test_time_ordering_enforced(self):
        ms = (burst(10.0, "logon_request", 1.0), burst(5.0, "logon_ack", 1.0))
        with pytest.raises(DomainError):
            LogonSequence(
                id="bad", logon_time=10.0, measurements=ms,
                compensation_mode=CompensationMode.OPEN_LOOP,
            )
