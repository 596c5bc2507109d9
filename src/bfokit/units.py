"""Unit conversions and physical constants shared by every module."""

SPEED_OF_LIGHT_MPS = 299792458.0
KNOTS_TO_MPS = 0.514444
FPM_TO_MPS = 0.00508
G_MPS2 = 9.8
