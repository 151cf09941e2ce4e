"""Gate semantics against hand-written oracles.

The relaxed forms are checked against an independently written list of the
sixteen polynomials (not derived from the package's coefficient matrix).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import eval_hard, eval_relaxed
from gatenet import gates

# The sixteen relaxations written out longhand, one per gate id.
RELAXED_ORACLE = [
    lambda a, b: 0.0 * a,
    lambda a, b: a * b,
    lambda a, b: a - a * b,
    lambda a, b: a + 0.0 * b,
    lambda a, b: b - a * b,
    lambda a, b: b + 0.0 * a,
    lambda a, b: a + b - 2 * a * b,
    lambda a, b: a + b - a * b,
    lambda a, b: 1 - (a + b - a * b),
    lambda a, b: 1 - (a + b - 2 * a * b),
    lambda a, b: 1 - b + 0.0 * a,
    lambda a, b: 1 - b + a * b,
    lambda a, b: 1 - a + 0.0 * b,
    lambda a, b: 1 - a + a * b,
    lambda a, b: 1 - a * b,
    lambda a, b: 1.0 + 0.0 * a,
]

HARD_ORACLE = [
    lambda a, b: 0,
    lambda a, b: a and b,
    lambda a, b: a and not b,
    lambda a, b: a,
    lambda a, b: (not a) and b,
    lambda a, b: b,
    lambda a, b: a != b,
    lambda a, b: a or b,
    lambda a, b: not (a or b),
    lambda a, b: a == b,
    lambda a, b: not b,
    lambda a, b: a or not b,
    lambda a, b: not a,
    lambda a, b: (not a) or b,
    lambda a, b: not (a and b),
    lambda a, b: 1,
]

CORNERS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_hard_semantics_exhaustive():
    for g in range(16):
        for a, b in CORNERS:
            assert eval_hard(g, a, b) == int(HARD_ORACLE[g](a, b)), (g, a, b)


def test_relaxed_matches_oracle_on_grid():
    pts = np.linspace(0.0, 1.0, 21)
    aa, bb = np.meshgrid(pts, pts)
    for g in range(16):
        got = eval_relaxed(g, aa, bb)
        want = RELAXED_ORACLE[g](aa, bb) * np.ones_like(aa)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_relaxed_corners_exact():
    # exact equality, not approximate: coefficients are small integers
    for g in range(16):
        for a, b in CORNERS:
            assert eval_relaxed(g, float(a), float(b)) == eval_hard(g, a, b)


@given(
    st.integers(min_value=0, max_value=15),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_relaxed_stays_in_unit_interval(g, a, b):
    v = float(eval_relaxed(g, a, b))
    assert 0.0 <= v <= 1.0


@given(
    st.integers(min_value=0, max_value=15),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_complement_pairs_sum_to_one(g, a, b):
    lo = float(eval_relaxed(g, a, b))
    hi = float(eval_relaxed(15 - g, a, b))
    assert lo + hi == pytest.approx(1.0, abs=1e-12)


def test_gate_id_encodes_truth_table():
    for g in range(16):
        bits = [int(eval_hard(g, a, b)) for a, b in CORNERS]
        assert (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3] == g


def test_gate_id_out_of_range_rejected():
    with pytest.raises(ValueError):
        eval_relaxed(16, 0.5, 0.5)
    with pytest.raises(ValueError):
        eval_hard(-1, 0, 0)


def test_negation_transforms_exhaustive():
    for g in range(16):
        for a, b in CORNERS:
            assert eval_hard(gates.NEGATE_A[g], a, b) == eval_hard(g, 1 - a, b)
            assert eval_hard(gates.NEGATE_B[g], a, b) == eval_hard(g, a, 1 - b)


def test_fix_transforms_exhaustive():
    for g in range(16):
        for c in (0, 1):
            for a, b in CORNERS:
                assert eval_hard(gates.FIX_A[c][g], a, b) == eval_hard(g, c, b)
                assert eval_hard(gates.FIX_B[c][g], a, b) == eval_hard(g, a, c)
            assert int(gates.FIX_A[c][g]) in gates.UNARY_GATES
            assert int(gates.FIX_B[c][g]) in gates.UNARY_GATES


def test_tie_transforms_exhaustive():
    for g in range(16):
        for a, b in CORNERS:
            assert eval_hard(gates.TIE_SAME[g], a, b) == eval_hard(g, a, a)
        assert int(gates.TIE_SAME[g]) in {0, 3, 12, 15}


def test_names_cover_all_gates():
    assert len(gates.GATE_NAMES) == 16
    assert len(set(gates.GATE_NAMES)) == 16
