"""Cluster assembly: boards, TCC links, boot orchestration, prototypes."""

from .prototypes import (
    SingleBoardPrototype,
    TYAN_S2912E_DUAL,
    build_single_board_prototype,
)
from .system import ClusterError, RankInfo, TCCluster, default_layout

__all__ = [
    "TCCluster",
    "ClusterError",
    "RankInfo",
    "default_layout",
    "SingleBoardPrototype",
    "build_single_board_prototype",
    "TYAN_S2912E_DUAL",
]
