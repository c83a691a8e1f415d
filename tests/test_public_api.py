"""The package's public surface: what it exports resolves, and what was
removed stays removed."""

import importlib

import pytest

import irrmeasure

#: (module, name) pairs deleted from the API; each must stay unexported
REMOVED = [
    ("irrmeasure", "brute_force_psi"),
    ("irrmeasure", "tail"),
    ("irrmeasure.stepfunc", "brute_force_psi"),
    ("irrmeasure.cf", "tail"),
    ("irrmeasure", "check_nj_bound"),
    ("irrmeasure.bound", "check_nj_bound"),
    ("irrmeasure", "error_enclosure"),
    ("irrmeasure.cf", "error_enclosure"),
    ("irrmeasure", "psi_left_limit"),
    ("irrmeasure.stepfunc", "psi_left_limit"),
    ("irrmeasure.cf", "ContinuedFraction.a0"),
    ("irrmeasure", "sqrt_enclosure"),
    ("irrmeasure.bound", "RestrictedViews"),
    ("irrmeasure.screening", "RigidityScan.__getitem__"),
]


def test_every_exported_name_resolves():
    assert [name for name in irrmeasure.__all__
            if not hasattr(irrmeasure, name)] == []
    assert len(set(irrmeasure.__all__)) == len(irrmeasure.__all__)


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_are_not_exported(module, name):
    mod = importlib.import_module(module)
    assert name not in getattr(mod, "__all__", ())
    # a dotted name is an attribute of a class in the module
    *owners, attr = name.split(".")
    for owner in owners:
        mod = getattr(mod, owner)
    assert not hasattr(mod, attr)
