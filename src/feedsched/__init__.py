"""feedsched: broadcast schedule optimization over follower timelines.

Models the expected attention a recurring daily posting schedule earns from a
population of timeline-reading followers, optimizes schedules under a post
budget, estimates follower behaviour from activity traces, verifies the
analytic objective by Monte Carlo replay, and reproduces cluster-reaction
statistics with randomization tests.

The package re-exports the `__all__` of each library module; the star imports
come after the aliases, so `feedsched.simulate` is the function.
"""

from . import analyze as _analyze, estimate as _estimate, model as _model
from . import objective as _objective, optimize as _optimize, simulate as _simulate
from .model import *  # noqa: F401,F403
from .objective import *  # noqa: F401,F403
from .optimize import *  # noqa: F401,F403
from .estimate import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .analyze import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (_model, _objective, _optimize, _estimate, _simulate, _analyze):
    __all__ += _module.__all__
del _module
