"""The sixteen two-input Boolean gates and their real-valued relaxations.

A gate id in [0, 16) encodes the truth table read as a 4-bit number with the
input pair (1,1) in the least significant bit:

    id = f(0,0)<<3 | f(0,1)<<2 | f(1,0)<<1 | f(1,1)

so 1 is AND, 6 is XOR, 7 is OR, 8 is NOR, 14 is NAND, etc. The relaxation of
every gate is the unique bilinear polynomial through its four corners,

    f_i(a, b) = c0 + c1*a + c2*b + c3*a*b,

which is the probabilistic interpretation: f_i(a, b) = E[gate(A, B)] for
independent Bernoulli inputs with means a and b. Bilinear interpolation of
corner values in {0,1} stays inside [0,1] on the unit square, so no clamping
is ever needed, and the corners are reproduced exactly in float arithmetic
because every coefficient is a small integer.
"""

from __future__ import annotations

import numpy as np

NUM_GATES = 16

GATE_NAMES: tuple[str, ...] = (
    "false",
    "and",
    "a-and-not-b",
    "a",
    "not-a-and-b",
    "b",
    "xor",
    "or",
    "nor",
    "xnor",
    "not-b",
    "a-or-not-b",
    "not-a",
    "not-a-or-b",
    "nand",
    "true",
)


def _truth_tables() -> np.ndarray:
    tt = np.zeros((NUM_GATES, 4), dtype=np.uint8)
    for g in range(NUM_GATES):
        for a in (0, 1):
            for b in (0, 1):
                tt[g, 2 * a + b] = (g >> (3 - (2 * a + b))) & 1
    return tt


#: TRUTH_TABLES[g, 2*a+b] = g(a, b); columns ordered (0,0), (0,1), (1,0), (1,1).
TRUTH_TABLES: np.ndarray = _truth_tables()
TRUTH_TABLES.setflags(write=False)


def _bilinear_coeffs() -> np.ndarray:
    f00 = TRUTH_TABLES[:, 0].astype(np.float64)
    f01 = TRUTH_TABLES[:, 1].astype(np.float64)
    f10 = TRUTH_TABLES[:, 2].astype(np.float64)
    f11 = TRUTH_TABLES[:, 3].astype(np.float64)
    return np.stack([f00, f10 - f00, f01 - f00, f11 - f10 - f01 + f00], axis=1)


#: COEFFS[g] = (c0, c1, c2, c3) with f_g(a,b) = c0 + c1*a + c2*b + c3*a*b.
COEFFS: np.ndarray = _bilinear_coeffs()
COEFFS.setflags(write=False)


def _table_transform(remap) -> np.ndarray:
    """Opcode lookup table for a truth-table column permutation/restriction.

    ``remap(a, b)`` gives the (a', b') whose original entry lands at (a, b).
    """
    out = np.zeros(NUM_GATES, dtype=np.uint8)
    for g in range(NUM_GATES):
        bits = 0
        for a in (0, 1):
            for b in (0, 1):
                sa, sb = remap(a, b)
                bits |= int(TRUTH_TABLES[g, 2 * sa + sb]) << (3 - (2 * a + b))
        out[g] = bits
    out.setflags(write=False)
    return out


#: NEGATE_A[g] is the gate computing g(NOT a, b); likewise NEGATE_B.
NEGATE_A: np.ndarray = _table_transform(lambda a, b: (1 - a, b))
NEGATE_B: np.ndarray = _table_transform(lambda a, b: (a, 1 - b))
#: FIX_A[c][g] is the gate computing g(c, b) as a function of b alone
#: (its id is always one of 0, 5, 10, 15); likewise FIX_B for g(a, c).
FIX_A: tuple[np.ndarray, np.ndarray] = (
    _table_transform(lambda a, b: (0, b)),
    _table_transform(lambda a, b: (1, b)),
)
FIX_B: tuple[np.ndarray, np.ndarray] = (
    _table_transform(lambda a, b: (a, 0)),
    _table_transform(lambda a, b: (a, 1)),
)
#: TIE_SAME[g] computes g(a, a); it lands in {0 (false), 3 (a), 12 (not-a),
#: 15 (true)}.
TIE_SAME: np.ndarray = _table_transform(lambda a, b: (a, a))

#: Gates that depend on at most one input.
UNARY_GATES = frozenset({0, 3, 5, 10, 12, 15})
