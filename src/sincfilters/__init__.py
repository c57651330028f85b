"""Linear low-pass filters for definite-parity Fourier series.

Coefficient-space sinc multipliers, the physical-space moving average, the
order-N kernels in their three range regimes, the infinite-order scaled
kernel, and the unit-disk realization on inner analytic functions.

The package exports each module's __all__; a public name is declared there only.
"""

from . import disk, errors, filters, oracle, scaled, series
from .disk import *  # noqa: F403
from .errors import *  # noqa: F403
from .filters import *  # noqa: F403
from .oracle import *  # noqa: F403
from .scaled import *  # noqa: F403
from .series import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (errors, series, filters, scaled, disk, oracle) for name in module.__all__
)
