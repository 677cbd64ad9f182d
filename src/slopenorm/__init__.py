"""Exact arithmetic for slopes on a one-cusped torus boundary: Euclidean
slope lengths on a horotorus, boundary-slope norms, and the inequalities
and diameter bounds relating them.  Everything is computed over exact
rationals; square roots only ever appear inside an exact sign comparator
or in display strings.
"""

from . import cusp, families, manifold, norm, slopes, verify
from .cusp import *  # noqa: F403 -- each module's __all__ is its public API
from .families import *  # noqa: F403
from .manifold import *  # noqa: F403
from .norm import *  # noqa: F403
from .slopes import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *slopes.__all__, *cusp.__all__, *norm.__all__, *manifold.__all__, *verify.__all__, *families.__all__,
    "__version__",
]
