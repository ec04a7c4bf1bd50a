"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

__all__ = ["check_positive", "check_nonnegative"]


def check_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_nonnegative(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")

