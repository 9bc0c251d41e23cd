"""SEIRV malware-propagation toolkit.

Simulation of the five-compartment device model, equilibrium/threshold/
stability analysis, sensitivity and control-region maps, hybrid
gradient + simulated-annealing optimal control, and data-driven calibration
with averted-cases analysis. The package re-exports every module's __all__.
"""

from . import analysis, calibration, control, equilibria, model
from .analysis import *
from .calibration import *
from .control import *
from .equilibria import *
from .model import *

__all__ = [*model.__all__, *equilibria.__all__, *analysis.__all__,
           *control.__all__, *calibration.__all__]

__version__ = "0.1.0"
