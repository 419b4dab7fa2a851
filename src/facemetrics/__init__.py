"""facemetrics: evaluation toolkit for face/object detector output.

Geometry for boxes and rotated ellipses, anchor-grid utilities,
detection-to-ground-truth matching, and the curve metrics built on them
(discrete/continuous ROC, per-image-normalized ROC, proposal recall),
plus strict parsers and canonical writers for the region-list and curve
file formats.  The :mod:`facemetrics.cli` module wraps it all in a
``facemetrics`` command.

All computation is deterministic and runs on one thread: the same
inputs give bit-identical results.

The package republishes each module's ``__all__``; a public name is
declared once, in its module.
"""

from . import anchors, geometry, io, matching, metrics
from ._version import __version__
from .anchors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .io import *  # noqa: F403
from .matching import *  # noqa: F403
from .metrics import *  # noqa: F403

__all__ = [
    "__version__",
    *geometry.__all__,
    *anchors.__all__,
    *matching.__all__,
    *metrics.__all__,
    *io.__all__,
]
