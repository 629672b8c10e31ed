"""Default generation profile and the bundled reference statistics.

The default accelerator profile is a 2^16 ring with 32-bit words and one
1344-bit XOF block per segment (42 candidate words).  ``REFERENCE_ROWS``
carries the expected supported-moduli statistics for that profile at the
four standard segment lengths; the ``table1`` CLI report and the acceptance
suite check enumeration output against these rows.
"""

from fractions import Fraction

DEFAULT_N = 1 << 16
DEFAULT_W = 32
DEFAULT_R_BITS = 1344  # the SHAKE128/KangarooTwelve rate: each segment's one block
DEFAULT_T = DEFAULT_R_BITS // DEFAULT_W  # 42 candidate words per block
DEFAULT_HW_NAF_MAX = 5
DEFAULT_Q_MIN_EXCLUSIVE = 1 << 19
DEFAULT_MAX_FAIL = Fraction("0.03")
MAX_N_SEG = 1 << 16  # segment ids are 16 bits wide in the XOF input

HIST_BUCKETS = tuple(range(20, 33))

# One row per standard segment length: (p_r_max, |S|, histogram over
# HIST_BUCKETS, seg_len, MRP-failure bound).  p_r_max and the bound are
# decimal strings so they parse to exact Fractions.
REFERENCE_ROWS = (
    ("0.03655", 277, (2, 1, 1, 8, 15, 18, 26, 51, 39, 37, 20, 27, 32), 32, "0.0300"),
    ("0.25305", 526, (2, 1, 1, 8, 15, 18, 26, 52, 57, 87, 114, 68, 77), 16, "0.0300"),
    ("0.42359", 562, (2, 1, 1, 8, 15, 18, 26, 52, 57, 87, 115, 98, 82), 8, "0.0300"),
    ("0.5", 625, (2, 1, 1, 8, 15, 18, 26, 52, 57, 87, 115, 161, 82), 4, "0.0029"),
)
