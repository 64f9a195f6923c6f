"""Shared utilities: units, bit fields, calibration constants."""

from .bitfield import get_bits, mask, set_bits
from .calibration import DEFAULT_IB, DEFAULT_TIMING, EthernetModel, IBModel, TimingModel
from .units import (
    CACHELINE,
    GiB,
    KiB,
    MiB,
    bandwidth_mbps,
    bytes_per_ns_to_mbps,
    fmt_bytes,
    fmt_time_ns,
    gbit_per_s_to_bytes_per_ns,
    mbps_to_bytes_per_ns,
    ns_to_us,
    us_to_ns,
)

__all__ = [
    "get_bits",
    "set_bits",
    "mask",
    "TimingModel",
    "DEFAULT_TIMING",
    "IBModel",
    "DEFAULT_IB",
    "EthernetModel",
    "CACHELINE",
    "KiB",
    "MiB",
    "GiB",
    "bandwidth_mbps",
    "bytes_per_ns_to_mbps",
    "mbps_to_bytes_per_ns",
    "gbit_per_s_to_bytes_per_ns",
    "fmt_bytes",
    "fmt_time_ns",
    "ns_to_us",
    "us_to_ns",
]
