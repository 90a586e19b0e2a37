"""Exact invariants of links of weighted homogeneous hypersurface
singularities: weight systems, Betti numbers, signatures, exotic
sphere classes, eta-Einstein constants and left-invariant curvature.

The package exports the names of the README's library snippets;
every other name is imported from the module that defines it, so
`import linkatlas.betti` gives the module.
"""

from .catalog import TOOL_VERSION as __version__
from .curvature import MetricAlgebra, eta_fit, heisenberg_algebra
from .eta import EtaConstants, transverse_homothety
from .links import bp_link, classify_sign
from .spheres import casson_invariant

__all__ = [
    "__version__",
    "bp_link",
    "classify_sign",
    "casson_invariant",
    "EtaConstants",
    "transverse_homothety",
    "eta_fit",
    "heisenberg_algebra",
    "MetricAlgebra",
]
