"""Platform models: where design-point estimates come from.

The paper takes per-design-point execution time and current as given inputs.
This subpackage provides the two standard ways of producing them — a
DVS-processor model (alpha-power frequency law, cubic dynamic power,
constant platform overhead) and an FPGA implementation-alternative model
(Amdahl-limited parallelism versus active-area power) — so that realistic
problem instances can be generated from physical platform descriptions.
"""

from .. import _lazy_exports

__all__ = ["DvsProcessor", "OperatingPoint", "FpgaFabric"]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".dvs": ("DvsProcessor", "OperatingPoint"),
        ".fpga": ("FpgaFabric",),
    },
)
