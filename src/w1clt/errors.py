"""Exception types shared across the package, and the checks that decode JSON input."""


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
        return [_checked(v, kind[0], name) for v in value]
    return _checked(value, kind, name)


def _checked(value, kind, name: str):
    if kind in (str, dict):
        if isinstance(value, kind):
            return value
    elif not isinstance(value, (str, bool)):
        try:
            out = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if kind is float or out == value:  # an int must be integral
                return out
    raise ValidationError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
