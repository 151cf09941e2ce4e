"""Families of T-norms and T-conorms.

A T-norm generalizes Boolean AND to [0,1] (commutative, associative, monotone,
neutral element 1); its De Morgan dual T-conorm generalizes OR (neutral
element 0). The package does not use this module: it lives with the tests as
an independent reference. Its probabilistic family is the oracle that
``test_tnorms`` checks the gate relaxations in :mod:`gatenet.gates` against;
the other families are utilities for studying alternative relaxations.

Boundary inputs where a closed form divides by zero (Hamacher p=0 at
(0,0)/(1,1)) take their continuous-limit values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DOMAINS: dict[str, tuple[str, object] | None] = {
    "minimum": None,
    "probabilistic": None,
    "einstein": None,
    "hamacher": ("p >= 0", lambda p: p >= 0),
    "frank": ("p > 0 and p != 1", lambda p: p > 0 and p != 1),
}

FAMILY_NAMES: tuple[str, ...] = tuple(_DOMAINS)


@dataclass(frozen=True)
class RelaxationFamily:
    """A named T-norm/T-conorm pair, with parameter where the family has one."""

    kind: str
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _DOMAINS:
            raise ValueError(
                f"unknown family {self.kind!r}; choose from {', '.join(FAMILY_NAMES)}"
            )
        dom = _DOMAINS[self.kind]
        if dom is None:
            if self.p is not None:
                raise ValueError(f"family {self.kind!r} takes no parameter")
        else:
            desc, ok = dom
            if self.p is None or not np.isfinite(self.p) or not ok(float(self.p)):
                raise ValueError(
                    f"family {self.kind!r} requires parameter {desc}, got {self.p!r}"
                )


def _t_minimum(p, a, b):
    return np.minimum(a, b)


def _s_minimum(p, a, b):
    return np.maximum(a, b)


def _t_probabilistic(p, a, b):
    return a * b


def _s_probabilistic(p, a, b):
    return a + b - a * b


def _t_einstein(p, a, b):
    return a * b / (2.0 - (a + b - a * b))


def _s_einstein(p, a, b):
    return (a + b) / (1.0 + a * b)


def _t_hamacher(p, a, b):
    num = a * b
    den = p + (1.0 - p) * (a + b - a * b)
    # den = 0 only at p = 0, a = b = 0; the limit there is 0
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def _s_hamacher(p, a, b):
    num = a + b + (p - 2.0) * a * b
    den = 1.0 + (p - 1.0) * a * b
    # den = 0 only at p = 0, a = b = 1; the limit there is 1
    return np.divide(num, den, out=np.ones_like(num), where=den != 0)


def _t_frank(p, a, b):
    lp = np.log(p)
    return np.log1p(np.expm1(a * lp) * np.expm1(b * lp) / np.expm1(lp)) / lp


def _s_frank(p, a, b):
    return 1.0 - _t_frank(p, 1.0 - a, 1.0 - b)


_T_FUNCS = {
    "minimum": _t_minimum,
    "probabilistic": _t_probabilistic,
    "einstein": _t_einstein,
    "hamacher": _t_hamacher,
    "frank": _t_frank,
}

_S_FUNCS = {
    "minimum": _s_minimum,
    "probabilistic": _s_probabilistic,
    "einstein": _s_einstein,
    "hamacher": _s_hamacher,
    "frank": _s_frank,
}


def eval_family(family: RelaxationFamily, is_conorm: bool, a, b):
    """Evaluate the family's T-norm (or T-conorm) at (a, b) in [0,1]^2.

    Broadcasts over array inputs. Results are clamped to [0,1] against
    round-off; boundary inputs follow the continuous limits.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any((a < 0) | (a > 1)) or np.any((b < 0) | (b > 1)):
        raise ValueError("inputs must lie in [0, 1]")
    fn = (_S_FUNCS if is_conorm else _T_FUNCS)[family.kind]
    with np.errstate(all="ignore"):
        out = np.clip(fn(family.p, a, b), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def t_norm(family: RelaxationFamily, a, b):
    """The family's AND generalization."""
    return eval_family(family, False, a, b)


def t_conorm(family: RelaxationFamily, a, b):
    """The family's OR generalization (De Morgan dual of the T-norm)."""
    return eval_family(family, True, a, b)
