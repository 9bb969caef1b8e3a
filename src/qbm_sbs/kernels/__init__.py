"""The hot amplitude-sum kernel: one numpy implementation, no build step."""

from ._reference import AXIS_MOMENTUM, AXIS_POSITION, exponent_series


def backend_name() -> str:
    """Kernel name recorded in CSV headers and benchmark environment lines."""
    return "numpy"
