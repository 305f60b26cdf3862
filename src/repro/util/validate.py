"""Lightweight argument validation helpers used by configuration objects."""

from __future__ import annotations

import dataclasses
import numbers


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_power_of_two(name: str, value: int) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a power of two, got {value!r}")


def check_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_field_types(obj: object) -> None:
    """Raise ``TypeError`` unless each field of the dataclass ``obj``
    annotated ``int`` holds an integer (``bool`` is not one) and each
    annotated ``bool`` holds a ``bool``. Annotations are read as the
    strings ``from __future__ import annotations`` leaves; fields of
    other types are the caller's to check."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)
        ):
            raise TypeError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "bool" and not isinstance(value, bool):
            raise TypeError(f"{f.name} must be a bool, got {value!r}")


def check_type(name: str, value: object, kind: type) -> None:
    """Raise ``TypeError`` unless ``value`` is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")
