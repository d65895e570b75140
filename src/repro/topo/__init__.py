"""Switch-graph topology layer: graphs, port maps, deterministic routing."""

from .builders import binary_fat_tree, fat_tree, full_mesh, line
from .graph import Topology, TrunkLink

__all__ = [
    "Topology",
    "TrunkLink",
    "binary_fat_tree",
    "fat_tree",
    "full_mesh",
    "line",
]
