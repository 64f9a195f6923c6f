"""Bit-field helpers for the BKDG-style register files.

Register fields live inside fixed-width words; these helpers centralize
the masking arithmetic and validate widths so programming bugs surface as
exceptions rather than silent corruption.
"""

from __future__ import annotations

__all__ = ["get_bits", "set_bits", "mask"]


def mask(width: int) -> int:
    """An all-ones mask of ``width`` bits."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def get_bits(value: int, lo: int, width: int) -> int:
    """Extract ``width`` bits starting at bit ``lo``."""
    if lo < 0 or width <= 0:
        raise ValueError(f"invalid field lo={lo} width={width}")
    return (value >> lo) & mask(width)


def set_bits(value: int, lo: int, width: int, field: int) -> int:
    """Return ``value`` with the field ``[lo, lo+width)`` replaced."""
    if field < 0 or field > mask(width):
        raise ValueError(
            f"field value {field:#x} does not fit in {width} bits"
        )
    m = mask(width) << lo
    return (value & ~m) | ((field & mask(width)) << lo)
