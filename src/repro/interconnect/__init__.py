"""NVLink-C2C interconnect, explicit-copy DMA engine, and the
inter-superchip fabric link primitives."""

from .copyengine import CopyEngine
from .fabric import FabricLink, LinkKind
from .nvlink import NvlinkC2C

__all__ = [
    "NvlinkC2C",
    "CopyEngine",
    "FabricLink",
    "LinkKind",
]
