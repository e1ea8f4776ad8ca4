"""The package's value types: validation, immutability, hashing and repr.

Root, Partition, AlgebraParams, DiracBundle, CentralCharacter and
CohomologyReport are keys of memo tables and sets and parts of reports, so
their equality, hash and repr must not drift.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hcdirac import (
    AlgebraParams,
    CentralCharacter,
    CohomologyReport,
    Partition,
    Root,
    dirac_bundle,
    dirac_cohomology,
    steinberg_module,
)
from hcdirac.scalars import HALF, ONE, ZERO, Scalar


@pytest.mark.parametrize("make, error, message", [
    (lambda: Root("short", 1, 2), ValueError, "short root takes a single index"),
    (lambda: Root("short", 0), ValueError, "short root takes a single index"),
    (lambda: Root("diff", 2, 1), ValueError, "diff/sum roots require 1 <= i < j"),
    (lambda: Root("sum", 0, 1), ValueError, "diff/sum roots require 1 <= i < j"),
    (lambda: Root("long", 1, 2), ValueError, "unknown root kind 'long'"),
    (lambda: Partition((1, 2)), ValueError, "parts must be non-increasing: (1, 2)"),
    (lambda: Partition((2, 0)), ValueError, "parts must be positive integers: (2, 0)"),
    (lambda: Partition((2.0,)), ValueError, "parts must be positive integers: (2.0,)"),
    (lambda: AlgebraParams("C", 2, ONE), ValueError, "unknown algebra type 'C'"),
    (lambda: AlgebraParams("A", 0, ONE), ValueError, "rank must be at least 1"),
    (lambda: AlgebraParams("A", 2, 1), TypeError, "k_long must be a Scalar"),
    (lambda: AlgebraParams("B", 2, ONE, k_short=Fraction(1, 2)), TypeError,
     "k_short must be a Scalar"),
    (lambda: AlgebraParams("B", 2, ONE, N=2), TypeError, "N must be a Scalar"),
    (lambda: AlgebraParams("A", 2, ONE, N=ONE), ValueError,
     "type A admits only the single parameter k_long"),
    (lambda: AlgebraParams("A", 2, ONE, k_short=HALF), ValueError,
     "type A admits only the single parameter k_long"),
    (lambda: AlgebraParams("D", 3, ONE, k_short=ONE), ValueError, "type D forces k_short = 0"),
])
def test_validation_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def _values():
    """(instance, field names, repr) of each value type; None for a repr too
    long to pin."""
    a2 = AlgebraParams("A", 2, ONE)
    return [
        (Root("diff", 1, 2), ("kind", "i", "j"), "Root(kind='diff', i=1, j=2)"),
        (Root("short", 3), ("kind", "i", "j"), "Root(kind='short', i=3, j=0)"),
        (Partition((3, 1)), ("parts",), "Partition(parts=(3, 1))"),
        (a2, ("type", "n", "k_long", "k_short", "N"),
         "AlgebraParams(type='A', n=2, k_long=Scalar(1, 0, 0, 0), "
         "k_short=Scalar(0, 0, 0, 0), N=Scalar(0, 0, 0, 0))"),
        (AlgebraParams("B", 2, ONE, k_short=HALF, N=ONE), ("type", "n", "k_long", "k_short", "N"),
         "AlgebraParams(type='B', n=2, k_long=Scalar(1, 0, 0, 0), "
         "k_short=Scalar(1/2, 0, 0, 0), N=Scalar(1, 0, 0, 0))"),
        (CentralCharacter.from_values([Scalar(2), ZERO]), ("values",),
         "CentralCharacter(values=(Scalar(0, 0, 0, 0), Scalar(2, 0, 0, 0)))"),
        (dirac_bundle(a2), ("D", "omega_h", "omega_seg"), None),
        (dirac_cohomology(steinberg_module(AlgebraParams("A", 3, ONE))),
         ("module", "lam", "k", "dim_ker", "dim_im", "dim_im_cap_ker", "dim_hd",
          "ker_equals_ker_sq", "spectrum", "spectrum_complete", "matched_partition",
          "status", "chi_omega_h"), None),
    ]


VALUE_IDS = ["Root-diff", "Root-short", "Partition", "AlgebraParams-A", "AlgebraParams-B",
             "CentralCharacter", "DiracBundle", "CohomologyReport"]


@pytest.mark.parametrize("index", range(len(VALUE_IDS)), ids=VALUE_IDS)
def test_values_are_immutable_and_hash_as_their_fields(index):
    value, fields, text = _values()[index]
    name = type(value).__name__
    values = tuple(getattr(value, field) for field in fields)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], values[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert type(value)(*values) == value
    if name == "CohomologyReport":  # holds a dict and lists, as before: unhashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(values)
    if text is not None:
        assert repr(value) == text
    assert repr(value).startswith(f"{name}({fields[0]}=")


def test_report_defaults():
    report = CohomologyReport({}, None, "1", 0, 0, 0, 0, True, [], True, [])
    assert report.status == "pass" and report.chi_omega_h is None
    assert AlgebraParams("A", 1, ONE).k_short == ZERO == AlgebraParams("A", 1, ONE).N
    assert Root("short", 2).j == 0
