"""Device models: Hopper GPU and Grace CPU."""

from .cpu import CpuDevice
from .gpu import GpuDevice

__all__ = ["GpuDevice", "CpuDevice"]
