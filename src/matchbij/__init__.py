"""Complete matchings on 2n points and the bijections tying together the
L & P family, noncrossing matchings with a chosen nested pair, and the
canonical representatives of nesting-similarity classes.

The library is exhaustive-verification oriented: every family it defines
can be enumerated and every claimed bijection round-tripped over the whole
domain at small sizes.
"""

from . import bijections, core, enumeration, formats, lp, render, similarity

# Built before the star imports, because ``from .render import *`` rebinds
# ``render`` from the module to the function.
__all__ = [name for module in (core, lp, bijections, similarity, enumeration, formats, render)
           for name in module.__all__]

from .core import *  # noqa: E402,F401,F403
from .lp import *  # noqa: E402,F401,F403
from .bijections import *  # noqa: E402,F401,F403
from .similarity import *  # noqa: E402,F401,F403
from .enumeration import *  # noqa: E402,F401,F403
from .formats import *  # noqa: E402,F401,F403
from .render import *  # noqa: E402,F401,F403

__version__ = "0.1.0"
