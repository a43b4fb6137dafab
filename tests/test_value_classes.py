"""The package's value classes: each is built by keyword and by position
with its documented defaults, refuses to have a field assigned or
deleted, and compares by identity, except ``BasisLayout``, which compares
and hashes by value because phasors and tables check layouts with ``==``."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from gapower.algebra import Frozen
from gapower.circuit import Admittances, SeriesRLC
from gapower.cli import _Records
from gapower.decompose import CurrentComponents
from gapower.phasor import BasisLayout, GeometricPhasor, SpectralSignal
from gapower.power import GeometricPower, PowerReport
from gapower.waveform import SampledWaveform

LAYOUT = BasisLayout(n=1)
PHASOR = GeometricPhasor(coeffs=[0.0, 1.0, 2.0], layout=LAYOUT, fundamental_hz=50.0)
POWER = GeometricPower(scalar=2.0, blade_indices=[[1, 2]], va=[1.0], layout=LAYOUT)
PER_ORDER = (np.array([1.0]), np.array([2.0]), np.array([1.0]))
CURRENTS = ("i_a", "i_N", "i_p", "i_q", "i_s", "i_G", "total")

# (class, keyword arguments, the fields' values once built, in the order
# the constructor takes them); a field the keywords leave out holds its
# documented default
CASES = [
    (SpectralSignal, {"fundamental_hz": 50.0},
     {"fundamental_hz": 50.0, "dc": 0.0, "orders": [], "rms": [], "phase_rad": []}),
    (SpectralSignal,
     {"fundamental_hz": 50, "dc": 1, "orders": [1, 2.5], "rms": [3, 4],
      "phase_rad": None},
     {"fundamental_hz": 50.0, "dc": 1.0, "orders": [1.0, 2.5], "rms": [3.0, 4.0],
      "phase_rad": [0.0, 0.0]}),
    (BasisLayout, {"n": 3}, {"n": 3, "interharmonic_orders": ()}),
    (BasisLayout, {"n": 0, "interharmonic_orders": [0.5, 2.5]},
     {"n": 0, "interharmonic_orders": (0.5, 2.5)}),
    (GeometricPhasor, {"coeffs": [1, 2, 3], "layout": LAYOUT, "fundamental_hz": 60.0},
     {"coeffs": [1.0, 2.0, 3.0], "layout": LAYOUT, "fundamental_hz": 60.0}),
    (GeometricPower,
     {"scalar": 1, "blade_indices": np.zeros((0, 2), int), "va": [], "layout": LAYOUT},
     {"scalar": 1.0, "blade_indices": np.zeros((0, 2), int), "va": [],
      "layout": LAYOUT}),
    (PowerReport,
     {"p_w": 2.0, "apparent_va": 3.0, "pf": None, "per_harmonic": PER_ORDER,
      "m": POWER, "cross": np.array([False])},
     {"p_w": 2.0, "apparent_va": 3.0, "pf": None, "per_harmonic": PER_ORDER,
      "m": POWER, "cross": [False]}),
    (SeriesRLC, {"r": 1.0}, {"r": 1.0, "l": 0.0, "c": None}),
    (SeriesRLC, {"l": 2.0, "c": 3.0}, {"r": 0.0, "l": 2.0, "c": 3.0}),
    (Admittances,
     {"layout": LAYOUT, "conductance": [1, 2], "susceptance": [0, -1],
      "present": [1, 0]},
     {"layout": LAYOUT, "conductance": [1.0, 2.0], "susceptance": [0.0, -1.0],
      "present": [True, False]}),
    (CurrentComponents, dict.fromkeys(CURRENTS, PHASOR), dict.fromkeys(CURRENTS, PHASOR)),
    (SampledWaveform, {"samples": [1, -1], "sample_rate_hz": 8.0},
     {"samples": [1.0, -1.0], "sample_rate_hz": 8.0}),
    (_Records, {"proto": {"a": 1}, "columns": ([],)},
     {"proto": {"a": 1}, "columns": ([],)}),
]
IDS = [f"{cls.__name__}-{k}" for k, (cls, _, _) in enumerate(CASES)]


def same(got, want) -> bool:
    """Whether a field holds ``want``: an equal array of the same dtype
    kind where it holds an array, else ``want`` itself or an equal value
    of the same type."""
    if isinstance(got, np.ndarray):
        want = np.asarray(want)
        return got.dtype.kind == want.dtype.kind and np.array_equal(got, want)
    return got is want or type(got) is type(want) and got == want


def flat(x):
    """``x`` in a form ``==`` compares by value: an array as its dtype
    kind and list, a value object as its class and fields, a sequence
    item by item."""
    if isinstance(x, Frozen):
        return type(x), [flat(getattr(x, n)) for n in x.__slots__]
    if isinstance(x, np.ndarray):
        return x.dtype.kind, x.tolist()
    if isinstance(x, (tuple, list)):
        return [flat(v) for v in x]
    return x


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_built_by_keyword_and_by_position_with_the_defaults(cls, kwargs, fields):
    for obj in (cls(**kwargs), cls(*fields.values())):
        for name, want in fields.items():
            assert same(getattr(obj, name), want), name


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, kwargs, fields):
    obj = cls(**kwargs)
    for name in [*fields, "not_a_field"]:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(obj, name, 1.0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(obj, name)
    for name, want in fields.items():
        assert same(getattr(obj, name), want), name


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_copies_and_pickles_keep_the_fields(cls, kwargs, fields):
    obj = cls(**kwargs)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert flat(twin) == flat(obj)
        fields = [getattr(twin, name) for name in twin.__slots__]
        # the storage rule holds for a copy too
        assert not any(f.flags.writeable for f in fields if isinstance(f, np.ndarray))
        with pytest.raises(AttributeError, match="cannot assign"):
            twin.not_a_field = 1.0


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_value_classes_compare_by_identity_but_the_layout(cls, kwargs, fields):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == a
    assert (a == b) is (cls is BasisLayout)
    assert (hash(a) == hash(b)) is (cls is BasisLayout)


def test_layouts_compare_and_hash_by_value():
    a = BasisLayout(2, (0.5,))
    assert a == BasisLayout(n=2, interharmonic_orders=[0.5])
    assert hash(a) == hash(BasisLayout(2, [0.5]))
    assert len({a, BasisLayout(2, (0.5,)), BasisLayout(2), BasisLayout(3, (0.5,))}) == 3
    assert a != BasisLayout(2, (1.5,))
    assert a != (2, (0.5,))
