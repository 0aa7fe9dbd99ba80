"""Range contract of every library entry that takes a real parameter.

Each row leaves one real parameter (beta, a tolerance, Hurwitz's a or a
Dickman/delta u) open, gives a valid value for it and lists the checks the
value meets, in order: the entry that refuses and its bounds.  The parameter
is replaced by 0, -1, NaN, +inf, -inf, each bound and the valid value.  A
value that is not finite, or outside a check's bounds, must raise
``ValueError`` naming that entry and ending in the value; any other value
must give a result whose floats are all finite, or decompose's typed
:class:`NotSubconformalError` verdict.  Dickman's step h keeps its own checks
and is not swept here.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

from affkms.algebra import Monomial
from affkms.arith import PrimeSet, hurwitz_zeta, partial_zeta, residue_weights, totient_beta
from affkms.asymptotics import delta_estimate, dickman, dickman_grid, dickman_mass
from affkms.measures import (
    ONE,
    AtomicMeasure,
    NotSubconformalError,
    apply_A,
    apply_A_inv,
    check_subconformal,
    decompose,
    dirac,
    epsilon,
    extremal_measure,
    root,
    t_beta,
    t_beta_exact_root,
)
from affkms.states import (
    FiniteN,
    FromMeasure,
    LebesgueInf,
    LowTemp,
    QZChar,
    QZMonomial,
    QZSubgroup,
    Quotient,
    QuotientChar,
    coherence_sweep,
    eval_state,
    reconstruct_check,
    superposition_check,
    weak_star_gap,
)

EXT6 = extremal_measure(6, 0.7)
HALF = dirac(root(1, 2))  # not subconformal at beta = 0.7: its coefficients are -1.60 and 2.60
X = Monomial(2, 1, 2)
QX = QZMonomial(2, root(1, 6), 2)


def row(entry, param, call, valid, **bounds):
    return entry, param, call, valid, [(entry, bounds)]


ROWS = [
    row("totient_beta", "beta", lambda v: totient_beta(6, v), 0.7, ge=0),
    row("partial_zeta", "beta", lambda v: partial_zeta(PrimeSet.of([2, 3]), v), 0.7, gt=0),
    row("hurwitz_zeta", "beta", lambda v: hurwitz_zeta(v, 0.5), 2.0, gt=1),
    row("hurwitz_zeta", "a", lambda v: hurwitz_zeta(2.0, v), 0.5, gt=0, le=1),
    row("residue_weights", "beta", lambda v: residue_weights(6, v), 1.5, gt=1),
    row("apply_A", "beta", lambda v: apply_A(EXT6, 6, v), 0.7),
    row("apply_A_inv", "beta", lambda v: apply_A_inv(epsilon(6), 6, v), 0.7, gt=0),
    row("check_subconformal", "beta", lambda v: check_subconformal(dirac(ONE), v), 0.7, ge=0),
    row("check_subconformal", "tol", lambda v: check_subconformal(HALF, 0.7, tol=v), 1e-9, ge=0),
    row("decompose", "beta", lambda v: decompose(EXT6, v), 0.7, gt=0, le=1),
    row("decompose", "tol", lambda v: decompose(HALF, 0.7, tol=v), 1e-9, ge=0),
    row("extremal_measure", "beta", lambda v: extremal_measure(6, v), 0.7, ge=0),
    row("t_beta", "beta", lambda v: t_beta(EXT6, v, 100), 2.0, gt=1),
    row("t_beta_exact_root", "beta", lambda v: t_beta_exact_root(root(1, 6), v), 2.0, gt=1),
    row("FiniteN", "beta", lambda v: eval_state(FiniteN(6, v), X), 0.7, ge=0),
    row("LebesgueInf", "beta", lambda v: eval_state(LebesgueInf(v), X), 0.7, ge=0),
    row("FromMeasure", "beta", lambda v: eval_state(FromMeasure(EXT6, v), X), 0.7, ge=0),
    row("LowTemp", "beta", lambda v: eval_state(LowTemp(dirac(root(1, 3)), v), X), 2.0, gt=1),
    row("Quotient", "beta", lambda v: eval_state(Quotient(6, 2, v), X), 0.7, ge=0, le=1),
    row("QuotientChar", "beta", lambda v: eval_state(QuotientChar(6, root(1, 3), v), X), 2.0, gt=1),
    row("QZSubgroup", "beta", lambda v: eval_state(QZSubgroup(12, 4, v), QX), 0.7, ge=0, le=1),
    row("QZChar", "beta", lambda v: eval_state(QZChar(12, root(1, 4), v), QX), 2.0, gt=1),
    row("weak_star_gap", "beta", lambda v: weak_star_gap(v, 6, X), 0.7, ge=0, le=1),
    # the state's own check comes first; the series needs beta > 0 besides
    ("reconstruct_check", "beta",
     lambda v: reconstruct_check(FiniteN(4, v), PrimeSet.of([2]), 1, 50), 0.9,
     [("FiniteN", {"ge": 0}), ("reconstruct_check", {"gt": 0})]),
    row("superposition_check", "beta", lambda v: superposition_check(4, v), 2.0, gt=1),
    # the sweep refuses with its subgroup states' rule, ahead of any check
    ("coherence_sweep", "beta", lambda v: coherence_sweep(12, v, 1, random.Random(1)), 0.7,
     [("QZSubgroup", {"ge": 0, "le": 1})]),
    row("dickman", "u", lambda v: dickman(v), 2.0, ge=0),
    row("dickman_grid", "u_max", lambda v: dickman_grid(v), 2.0, ge=0),
    row("dickman_mass", "u_max", lambda v: dickman_mass(v), 2.0, ge=0),
    row("delta_estimate", "u", lambda v: delta_estimate(v, 100), 2.0, ge=1),
]


def _cases():
    for entry, param, call, valid, checks in ROWS:
        values = [0.0, -1.0, math.nan, math.inf, -math.inf, valid]
        values += [float(b) for _, bounds in checks for b in bounds.values()]
        for v in dict.fromkeys(values):  # in order, once each (NaN is one object)
            yield pytest.param(call, param, v, checks, id=f"{entry}-{param}={v}")


def _inside(v, gt=None, ge=None, le=None):
    return (gt is None or v > gt) and (ge is None or v >= ge) and (le is None or v <= le)


def _floats(x):
    """Every float a result carries."""
    if isinstance(x, (bool, int, str)) or x is None:
        return []
    if isinstance(x, float):
        return [x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.ndarray):
        return x.astype(float).ravel().tolist()
    if isinstance(x, AtomicMeasure):
        return list(x.atoms().values())
    if isinstance(x, dict):
        return [f for item in x.items() for part in item for f in _floats(part)]
    if isinstance(x, (tuple, list)):
        return [f for part in x for f in _floats(part)]
    if dataclasses.is_dataclass(x):
        return [f for fld in dataclasses.fields(x) for f in _floats(getattr(x, fld.name))]
    raise TypeError(f"no float reader for {type(x).__name__}")


@pytest.mark.parametrize("call, param, v, checks", _cases())
def test_refused_by_name_or_answered_finitely(call, param, v, checks):
    refuser = next(
        (name for name, bounds in checks if not (math.isfinite(v) and _inside(v, **bounds))), None
    )
    if refuser is not None:
        with pytest.raises(ValueError) as err:
            call(v)
        message = str(err.value)
        if math.isfinite(v):
            assert message.startswith(f"{refuser} requires ") and message.endswith(f", got {v}")
        else:
            assert message == f"{refuser} requires a finite {param}, got {v}"
        return
    try:
        result = call(v)
    except NotSubconformalError as verdict:
        result = verdict.coefficients
    floats = _floats(result)
    assert all(math.isfinite(f) for f in floats), floats
