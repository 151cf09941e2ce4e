"""T-norm/T-conorm families against independent closed forms and the axioms."""

import math

import numpy as np
import pytest

from conftest import eval_relaxed
from tnorms import FAMILY_NAMES, RelaxationFamily, eval_family, t_conorm, t_norm

# Independent oracle implementations, scalar math only. The conorm oracles are
# written as the De Morgan dual 1 - T(1-a, 1-b), which is the defining
# relationship and sidesteps transcription mistakes in closed conorm forms.


def oracle_t(kind, p, a, b):
    if kind == "minimum":
        return min(a, b)
    if kind == "probabilistic":
        return a * b
    if kind == "einstein":
        return a * b / (2 - (a + b - a * b))
    if kind == "hamacher":
        den = p + (1 - p) * (a + b - a * b)
        return 0.0 if den == 0 else a * b / den
    if kind == "frank":
        return math.log(1 + (p**a - 1) * (p**b - 1) / (p - 1)) / math.log(p)
    raise AssertionError(kind)


def oracle_s(kind, p, a, b):
    return 1.0 - oracle_t(kind, p, 1.0 - a, 1.0 - b)


PARAM_CHOICES = {
    "minimum": [None],
    "probabilistic": [None],
    "einstein": [None],
    "hamacher": [0.0, 0.5, 1.0, 2.0, 7.5],
    "frank": [0.1, 0.5, 2.0, 10.0],
}

ALL_FAMILIES = [
    RelaxationFamily(kind, p) for kind in FAMILY_NAMES for p in PARAM_CHOICES[kind]
]

GRID = [0.0, 0.03, 0.25, 0.5, 0.77, 1.0]


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_matches_oracle_on_grid(fam):
    for a in GRID:
        for b in GRID:
            assert t_norm(fam, a, b) == pytest.approx(
                oracle_t(fam.kind, fam.p, a, b), abs=1e-9
            ), (fam, a, b, "norm")
            assert t_conorm(fam, a, b) == pytest.approx(
                oracle_s(fam.kind, fam.p, a, b), abs=1e-9
            ), (fam, a, b, "conorm")


def test_stated_values():
    assert eval_family(RelaxationFamily("probabilistic"), True, 0.5, 0.5) == pytest.approx(0.75)
    assert eval_family(RelaxationFamily("einstein"), True, 0.5, 0.5) == pytest.approx(0.8)
    assert eval_family(RelaxationFamily("minimum"), False, 0.2, 0.9) == pytest.approx(0.2)


def test_probabilistic_family_is_the_gate_relaxation():
    fam = RelaxationFamily("probabilistic")
    for a in GRID:
        for b in GRID:
            assert t_norm(fam, a, b) == pytest.approx(eval_relaxed(1, a, b), abs=1e-12)
            assert t_conorm(fam, a, b) == pytest.approx(eval_relaxed(7, a, b), abs=1e-12)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_axioms_at_sampled_points(fam):
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.005, 0.995, size=(40, 3))
    for a, b, c in pts:
        tn = t_norm(fam, a, b)
        sn = t_conorm(fam, a, b)
        assert 0.0 <= tn <= 1.0 and 0.0 <= sn <= 1.0
        # commutativity
        assert tn == pytest.approx(t_norm(fam, b, a), abs=1e-12)
        assert sn == pytest.approx(t_conorm(fam, b, a), abs=1e-12)
        # associativity
        assert t_norm(fam, t_norm(fam, a, b), c) == pytest.approx(
            t_norm(fam, a, t_norm(fam, b, c)), abs=1e-7
        )
        assert t_conorm(fam, t_conorm(fam, a, b), c) == pytest.approx(
            t_conorm(fam, a, t_conorm(fam, b, c)), abs=1e-7
        )
        # neutral elements
        assert t_norm(fam, a, 1.0) == pytest.approx(a, abs=1e-9)
        assert t_conorm(fam, a, 0.0) == pytest.approx(a, abs=1e-9)
        # monotonicity in each argument
        if b <= c:
            assert t_norm(fam, a, b) <= t_norm(fam, a, c) + 1e-9
            assert t_conorm(fam, a, b) <= t_conorm(fam, a, c) + 1e-9


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_de_morgan_duality(fam):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    a, b = pts[:, 0], pts[:, 1]
    lhs = t_norm(fam, a, b)
    rhs = 1.0 - t_conorm(fam, 1.0 - a, 1.0 - b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_boundary_corners_match_boolean(fam):
    # every T-norm agrees with AND, every T-conorm with OR, on {0,1}^2
    for a in (0.0, 1.0):
        for b in (0.0, 1.0):
            assert t_norm(fam, a, b) == pytest.approx(float(a == 1.0 and b == 1.0), abs=1e-12)
            assert t_conorm(fam, a, b) == pytest.approx(float(a == 1.0 or b == 1.0), abs=1e-12)


@pytest.mark.parametrize(
    "kind,bad",
    [
        ("hamacher", -0.5),
        ("frank", 1.0),
        ("frank", 0.0),
        ("frank", -2.0),
    ],
)
def test_parameter_domain_rejected(kind, bad):
    with pytest.raises(ValueError):
        RelaxationFamily(kind, bad)


def test_parameterless_families_reject_parameter():
    with pytest.raises(ValueError):
        RelaxationFamily("minimum", 2.0)
    with pytest.raises(ValueError):
        RelaxationFamily("no-such-family", 1.0)


def test_missing_parameter_rejected():
    with pytest.raises(ValueError):
        RelaxationFamily("frank")


def test_inputs_outside_unit_square_rejected():
    fam = RelaxationFamily("probabilistic")
    with pytest.raises(ValueError):
        t_norm(fam, -0.1, 0.5)
    with pytest.raises(ValueError):
        t_conorm(fam, 0.5, 1.5)
