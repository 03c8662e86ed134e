"""The bits of a region flag: a block meets the positive region A, the
negative region B, the boundary.

A block's seven value is the nonempty set of regions it meets, so one
3-bit flag names it (`values.TruthValue.flag`).  This module imports
nothing, so that the table ingest can OR decisions into flags without
loading the truth values.
"""

POSITIVE, NEGATIVE, BOUNDARY = 1, 2, 4
