"""Dither-based adaptive stabilization of a scalar plant, with the
averaging theory behind it turned into runnable pieces.

The package splits along the lifecycle of a study: `dynamics` defines
the plant, the controllers and their averaged system; `averaging`
computes interaction coefficients and audits the averaging
prerequisites; `integrate` steps trajectories (fixed-step solvers and
a whole-period series scheme); `analysis` quantifies convergence,
conserved quantities and gain-shape properties; `cli` drives it all
from config files.
"""

from . import analysis, averaging, cftable, dynamics, integrate
from .analysis import *
from .averaging import *
from .cftable import *
from .dynamics import *
from .integrate import *

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *averaging.__all__,
    *cftable.__all__,
    *dynamics.__all__,
    *integrate.__all__,
    "__version__",
]
