"""Property tests of the JSON wire format: to_dict and the *_from_dict decoders.

For every model kind, process variant and coefficient family, decoding the
JSON text of ``to_dict`` and encoding again gives the same dict, and one
extra key in any object of that dict is rejected.  Each object's keys are its
constructor's parameters: a key left out decodes to the constructor's
default, a required one is named in the error, and so is every kind when the
tag names none.
"""
import dataclasses
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from w1clt.errors import ValidationError
from w1clt.models import (
    DistributionModel,
    Exponential,
    ParetoTail,
    Tabulated,
    Uniform,
    model_from_dict,
    power_pushforward,
)
from w1clt.processes import (
    CausalLinear,
    DoublingMap,
    GeometricCoeffs,
    IID,
    IntermittentMap,
    PolynomialCoeffs,
    coeffs_from_dict,
    spec_from_dict,
)

_settings = settings(max_examples=60, deadline=None)


def _pos(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _tabulated(draw, lo=-10.0, span=20.0, interps=("linear", "step")):
    """A Tabulated model whose grid lies in [lo, lo + span]."""
    steps = draw(st.lists(_pos(1e-3, 1.0), min_size=1, max_size=12))
    grid = lo + span * np.cumsum([0.0, *steps]) / (1.0 + sum(steps))
    cdf = np.cumsum(draw(st.lists(_pos(0.0, 1.0), min_size=len(grid), max_size=len(grid))))
    cdf = cdf / cdf[-1] if cdf[-1] > 0 else np.linspace(0.0, 1.0, len(grid))
    return Tabulated(grid, cdf, interp=draw(st.sampled_from(interps)))


_uniform = st.builds(lambda lo, width: Uniform(lo, lo + width), _pos(-1e3, 1e3), _pos(1e-3, 1e3))
_exponential = st.builds(Exponential, _pos(1e-3, 1e3))
_pareto = st.builds(ParetoTail, _pos(1e-3, 1e3), _pos(0.1, 10.0))
_pushforward = st.builds(  # power_pushforward rejects step bases
    power_pushforward, _pos(0.01, 5.0),
    st.one_of(st.just("lebesgue"), _tabulated(lo=1e-3, span=1.0 - 1e-3, interps=("linear",))),
)
MODELS = st.one_of(_uniform, _exponential, _pareto, _tabulated(), _pushforward)
COEFFS = st.one_of(
    st.builds(GeometricCoeffs, _pos(0.0, 0.99)),
    st.builds(PolynomialCoeffs, _pos(1.01, 6.0), _pos(0.01, 10.0)),
)
_burn_in = st.integers(0, 10**6)
SPECS = st.one_of(
    st.builds(IID, MODELS),
    st.builds(IntermittentMap, _pos(0.01, 0.99), _pos(0.01, 2.0), _burn_in),
    st.builds(DoublingMap, _pos(0.01, 2.0), _burn_in),
    st.builds(CausalLinear, COEFFS, MODELS, st.one_of(st.none(), st.integers(1, 10**6))),
)


def _objects(d):
    """Every dict in a to_dict tree, the top one included."""
    yield d
    for v in d.values():
        if isinstance(v, dict):
            yield from _objects(v)


def _records(obj, path=()):
    """Every record in obj's tree with its path of field names, obj included."""
    yield obj, path
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _records(value, (*path, f.name))


def _at(tree, path, get):
    for name in path:
        tree = get(tree, name)
    return tree


def _check_roundtrip_and_stray_keys(obj, decode, data):
    wire = obj.to_dict()
    assert decode(json.loads(json.dumps(wire))).to_dict() == wire
    for record, path in _records(obj):
        params = inspect.signature(type(record)).parameters
        for name, param in params.items():
            tampered = json.loads(json.dumps(wire))
            del _at(tampered, path, dict.__getitem__)[name]
            if param.default is inspect.Parameter.empty:
                with pytest.raises(ValidationError, match=f"needs '{name}'"):
                    decode(tampered)
                continue
            kwargs = {k: getattr(record, k) for k in params if k != name}
            try:
                expected = type(record)(**kwargs)
            except ValidationError as err:  # the default itself is invalid here
                with pytest.raises(ValidationError, match=re.escape(str(err))):
                    decode(tampered)
            else:
                assert _at(decode(tampered), path, getattr) == expected
        tampered = json.loads(json.dumps(wire))
        _at(tampered, path, dict.__getitem__)[record.TAG] = "no such kind"
        with pytest.raises(ValidationError) as err:
            decode(tampered)
        assert f"'{record.kind}'" in str(err.value)
        if isinstance(record, DistributionModel):  # the input-only kind is listed too
            assert "'power_pushforward'" in str(err.value)
    objects = list(_objects(wire))
    target = data.draw(st.sampled_from(range(len(objects))), label="object")
    stray = data.draw(st.text(min_size=1).filter(lambda k: k not in objects[target]),
                      label="stray key")
    tampered = json.loads(json.dumps(wire))
    list(_objects(tampered))[target][stray] = 0
    with pytest.raises(ValidationError, match="unknown"):
        decode(tampered)


@_settings
@given(MODELS, st.data())
def test_model_wire_roundtrip(model, data):
    _check_roundtrip_and_stray_keys(model, model_from_dict, data)


@_settings
@given(SPECS, st.data())
def test_spec_wire_roundtrip(spec, data):
    _check_roundtrip_and_stray_keys(spec, spec_from_dict, data)


@_settings
@given(COEFFS, st.data())
def test_coefficients_wire_roundtrip(coeffs, data):
    _check_roundtrip_and_stray_keys(coeffs, coeffs_from_dict, data)
