"""Byte, time and bandwidth unit helpers.

All internal quantities use base SI-ish units:

* sizes: **bytes** (int)
* time: **seconds** (float)
* bandwidth: **bytes per second** (float)

The helpers here exist so configuration and reports can speak in the units
the paper uses (GB, GiB, ms, GB/s) without sprinkling magic constants through
the codebase.  Capacities quoted by the paper ("16GB MCDRAM", "96GB DDR4")
are marketing gigabytes, i.e. binary GiB on KNL spec sheets; we expose both
and use GiB for capacities, decimal GB/s for bandwidths, matching vendor
convention.
"""

from __future__ import annotations

import re

__all__ = [
    "KB", "MB", "GB", "TB",
    "KiB", "MiB", "GiB", "TiB",
    "US", "MS", "SECOND",
    "parse_size", "format_size", "format_time", "format_bandwidth",
]

# Decimal (SI) byte units.
KB = 10 ** 3
MB = 10 ** 6
GB = 10 ** 9
TB = 10 ** 12

# Binary (IEC) byte units.
KiB = 2 ** 10
MiB = 2 ** 20
GiB = 2 ** 30
TiB = 2 ** 40

# Time units, in seconds.
US = 1e-6
MS = 1e-3
SECOND = 1.0

_SIZE_UNITS = {
    "b": 1,
    "kb": KB, "mb": MB, "gb": GB, "tb": TB,
    "kib": KiB, "mib": MiB, "gib": GiB, "tib": TiB,
}

_QTY_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z/]*)\s*$")


def parse_size(text: str | int | float) -> int:
    """Parse ``"16GiB"``, ``"2 GB"``, ``4096`` ... into bytes.

    Bare numbers are taken as bytes.  The result is rounded to an integer
    byte count because allocators account in whole bytes.
    """
    if isinstance(text, (int, float)):
        return int(round(float(text)))
    m = _QTY_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse size {text!r}")
    unit = (m.group(2) or "b").lower()
    if unit not in _SIZE_UNITS:
        raise ValueError(f"unknown size unit {m.group(2)!r} in {text!r}")
    return int(round(float(m.group(1)) * _SIZE_UNITS[unit]))


def _format(value: float, steps: list[tuple[float, str]], digits: int) -> str:
    for factor, suffix in steps:
        if abs(value) >= factor:
            return f"{value / factor:.{digits}f}{suffix}"
    factor, suffix = steps[-1]
    return f"{value / factor:.{digits}f}{suffix}"


def format_size(nbytes: float, digits: int = 2) -> str:
    """Render a byte count with a binary suffix, e.g. ``"16.00GiB"``."""
    return _format(float(nbytes),
                   [(TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB"), (1, "B")],
                   digits)


def format_time(seconds: float, digits: int = 3) -> str:
    """Render a duration with an appropriate suffix, e.g. ``"12.500ms"``."""
    if seconds == 0:
        return "0s"
    return _format(seconds,
                   [(3600.0, "h"), (60.0, "min"), (1.0, "s"),
                    (MS, "ms"), (US, "us"), (1e-9, "ns")],
                   digits)


def format_bandwidth(bytes_per_s: float, digits: int = 1) -> str:
    """Render a bandwidth in decimal units, e.g. ``"485.0GB/s"``."""
    return _format(bytes_per_s,
                   [(TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB"), (1, "B")],
                   digits) + "/s"
