"""Light-field super-resolution with many-to-many attention.

Pure NumPy: a tape autodiff engine, the correlation-block network and
its per-view baseline, quality metrics, local attribution maps, geometric
self-ensembling, and a toy training loop, plus a CLI (`m2mtnet`).
"""

from .lftensor import LfTensor
from .network import NetConfig, Network, O2OBaseline, build, build_o2o

__all__ = [
    "LfTensor",
    "NetConfig",
    "Network",
    "O2OBaseline",
    "build",
    "build_o2o",
]

__version__ = "0.1.0"
