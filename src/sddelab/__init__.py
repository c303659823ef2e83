"""Pathwise delay-equation laboratory for rough Gaussian drivers.

A module's ``__all__`` is the one place a name is made public; the
package exports those lists in the order imported below.
"""

__version__ = "0.1.0"

from . import convergence, fbm, grids, integrate, norms, presets, solver
from .grids import *  # noqa: F401,F403
from .norms import *  # noqa: F401,F403
from .fbm import *  # noqa: F401,F403
from .integrate import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .presets import *  # noqa: F401,F403
from .convergence import *  # noqa: F401,F403

__all__ = [
    "__version__", *grids.__all__, *norms.__all__, *fbm.__all__, *integrate.__all__,
    *solver.__all__, *presets.__all__, *convergence.__all__,
]
