"""Exception types shared across the package, and the JSON codec.

Output: every ``to_dict`` returns ``jsonable(self)``, and every JSON writer
dumps ``jsonable`` data with ``allow_nan=False``.  Input: ``read_key`` and
friends check one object, ``count`` checks every count, seed and stream the
Python API takes, ``real`` every scalar real field and argument it takes,
``as_sorted_sample`` checks one sample or a stack, and ``from_wire`` decodes a
``WireRecord``.  A wire record is a dataclass whose JSON form is its tag
(``TAG`` holding the class's ``kind``) followed by its fields by name.  Each
field's annotation picks its JSON type, a field with a default may be left out
and then takes that default, and a nested record names its decoder in the
field's ``metadata["decode"]``.
"""
import math
from dataclasses import MISSING, fields, is_dataclass

import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot deliver its accuracy contract."""


class DivergenceError(NumericalError):
    """Raised when a requested quantity is provably infinite.

    The ``diagnostic`` attribute records the integrand/term exponent that
    caused the divergence.
    """

    def __init__(self, message: str, diagnostic: str | None = None):
        super().__init__(message)
        self.diagnostic = diagnostic


def as_sorted_sample(values, rows: bool = False) -> np.ndarray:
    """Validate a finite nonempty sample and return its order statistics.

    The values are flattened into one sample; with ``rows``, a 2-D array is
    a stack of samples and each row is sorted on its own.
    """
    arr = np.asarray(values, dtype=float)
    if not rows:
        arr = arr.ravel()
    if arr.size == 0:
        raise ValidationError("sample must be nonempty")
    out = np.sort(arr, axis=-1)
    # a sort puts -inf first and +inf and NaN last, so each row's ends decide
    if not (np.isfinite(out[..., 0]).all() and np.isfinite(out[..., -1]).all()):
        raise ValidationError("sample contains non-finite values")
    return out


_REQUIRED = object()
_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", dict: "an object"}


def reject_unknown_keys(d, allowed, what: str) -> dict:
    """Return ``d`` if it is a dict whose keys all lie in ``allowed``; else raise."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} must be an object, got {d!r}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown {what} key(s) {unknown}; allowed: {sorted(allowed)}")
    return d


def read_tag(d, tag: str, keys_by_tag: dict, what: str) -> str:
    """The discriminator ``d[tag]``, after rejecting the keys its kind does not take."""
    value = d.get(tag) if isinstance(d, dict) else None
    if not isinstance(value, str) or value not in keys_by_tag:
        raise ValidationError(
            f"{what} must be an object with {tag!r} one of {sorted(keys_by_tag)}, got {value!r}"
        )
    reject_unknown_keys(d, {tag, *keys_by_tag[value]}, f"{value} {what}")
    return value


# keyed by annotation text: the record modules postpone the evaluation of annotations
_READERS = {"float": float, "int": int, "str": str, "int | None": int, "np.ndarray": [float]}


def jsonable(value):
    """``value`` as strict JSON data.

    A dataclass becomes the dict of its fields (a wire record's tag first), an
    array or tuple a list, a dict key a string and a non-finite float None.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if is_dataclass(value) and not isinstance(value, type):
        out = {value.TAG: value.kind} if isinstance(value, WireRecord) else {}
        out.update((f.name, jsonable(getattr(value, f.name))) for f in fields(value))
        return out
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class JsonRecord:
    """A dataclass whose JSON form is ``jsonable(self)``."""

    def to_dict(self) -> dict:
        return jsonable(self)


class WireRecord(JsonRecord):
    """A dataclass whose JSON form is ``{TAG: kind, field: value, ...}``."""

    TAG = "kind"
    kind = "abstract"


def from_wire(d, classes, what: str, input_only=()):
    """Decode ``d`` into the one of ``classes`` whose ``kind`` its tag names.

    ``input_only`` names tags the caller decodes itself; they are listed as
    valid in the unknown-tag message.
    """
    by_kind = {cls.kind: cls for cls in classes}
    keys = {kind: [f.name for f in fields(cls)] for kind, cls in by_kind.items()}
    kind = read_tag(d, classes[0].TAG, {**keys, **dict.fromkeys(input_only, ())}, what)
    cls, name = by_kind[kind], f"{kind} {what}"
    args = {}
    for f in fields(cls):
        default = _REQUIRED if f.default is MISSING else f.default
        decode = f.metadata.get("decode")
        if decode is None:
            args[f.name] = read_key(d, f.name, _READERS[f.type], name, default)
        else:
            args[f.name] = decode(read_key(d, f.name, dict, name, default))
    return cls(**args)


def read_key(d: dict, key: str, kind, what: str, default=_REQUIRED):
    """``d[key]`` checked to be of ``kind``: float, int, str, dict or [float]/[int].

    A missing key gives ``default``, and a null value is allowed only where the
    default is None.  A missing required key or a value of another JSON type
    raises ValidationError naming the key.  Integers must be integral.
    """
    if key not in d:
        if default is _REQUIRED:
            raise ValidationError(f"{what} needs {key!r}")
        return default
    value = d[key]
    if value is None and default is None:
        return None
    name = f"{what} {key!r}"
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValidationError(f"{name} must be a list, got {value!r}")
        return [checked(v, kind[0], name) for v in value]
    return checked(value, kind, name)


def checked(value, kind, name: str):
    """``value`` as ``kind`` (float, int, str or dict), else ValidationError naming ``name``.

    Bools and strings are never numbers, and an int must be integral.
    """
    if kind in (str, dict):
        if isinstance(value, kind):
            return value
    elif not isinstance(value, (str, bool, np.bool_)):
        try:
            out = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if kind is float or out == value:  # an int must be integral
                return out
    raise ValidationError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")


def count(value, name: str, least: int | None = None) -> int:
    """``value`` as an int by the rule of ``checked``, at least ``least`` when given."""
    out = checked(value, int, name)
    if least is not None and out < least:
        raise ValidationError(f"{name} must be >= {least}, got {out}")
    return out


def real(value, name: str) -> float:
    """``value`` as a float by the rule of ``checked``: no bool, string or None."""
    return checked(value, float, name)
