"""HyperTransport substrate: packets, links, flow control, link init."""

from .link import Link, LinkDownError, LinkSide, LinkState, LinkStats
from .linkinit import (
    BOOT_GBIT_PER_LANE,
    BOOT_WIDTH_BITS,
    EndpointPersona,
    LinkInitFSM,
    LinkTrainingError,
)
from .packet import (
    ADDR_EXTENSION_THRESHOLD,
    Command,
    Packet,
    PacketError,
    VirtualChannel,
    make_broadcast,
    make_posted_write,
    make_read,
    make_read_response,
)
from .tags import (
    NUM_TAGS,
    ResponseMatchingTable,
    TagExhaustedError,
    UnroutableResponseError,
)

__all__ = [
    "Link",
    "LinkSide",
    "LinkState",
    "LinkStats",
    "LinkDownError",
    "LinkInitFSM",
    "EndpointPersona",
    "LinkTrainingError",
    "BOOT_WIDTH_BITS",
    "BOOT_GBIT_PER_LANE",
    "Command",
    "VirtualChannel",
    "Packet",
    "PacketError",
    "make_posted_write",
    "make_read",
    "make_read_response",
    "make_broadcast",
    "ADDR_EXTENSION_THRESHOLD",
    "ResponseMatchingTable",
    "TagExhaustedError",
    "UnroutableResponseError",
    "NUM_TAGS",
]
