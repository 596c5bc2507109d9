"""Burst-frequency-offset forward modeling and descent-rate bounding for
aircraft SATCOM links through a geosynchronous relay."""

from .bfo_model import (
    AircraftState,
    BfoTerms,
    ChannelConfig,
    calibrate_bias,
    descent_sensitivity,
    predict_bfo,
    predict_bfo_batch,
    vertical_doppler,
)
from .config import AnalysisConfig, load_config
from .descent import (
    AccelerationEstimate,
    BfoRange,
    DescentBoundsTable,
    DescentRates,
    Hypothesis,
    adjusted_bfo_range,
    combine_hypotheses,
    descent_rate_bounds,
    estimate_downward_acceleration,
)
from .errors import BfokitError, ConfigError, DomainError, ParseError
from .geodesy import (
    EcefVector,
    GeodeticPosition,
    GroundKinematics,
    elevation_angle,
    geodetic_to_ecef,
    kinematics_to_ecef_velocity,
)
from .satellite import (
    CorrectionTable,
    EphemerisTable,
    NominalSlot,
    SatelliteState,
    SyntheticGeoModel,
    deterministic_correction_at,
    nominal_satellite_position,
    satellite_state_at,
)
from .stats import (
    BfoMeasurement,
    Channel,
    ErrorStats,
    MessageType,
    NoiseBounds,
    bfo_error,
    compute_error_stats,
    flag_outliers,
)
from .track_sweep import TrackSector, bfo_error_vs_track, track_offset
from .trend import TrendModel, extrapolate, fit_linear_trend
from .warmup import (
    CompensationMode,
    DriftBounds,
    LogonSequence,
    apply_compensation_scaling,
    extract_drift_bounds,
    normalize_to_ack,
)

__version__ = "0.1.0"
