"""Grassmannian subspace arithmetic, line frames, partition linkage, and
induced semilinear maps, with a seeded property-verification CLI.

The top level exports the names the README and the benchmark use; everything
else is imported from its module (``frame_rigidity.suites``, ...).
"""

# bound before the submodules load, since the report module reads it
__version__ = "0.1.0"

from .errors import FrameRigidityError, NonFiniteError
from .frames import FrameTuple, evert, linked_partner
from .induced import CONJUGATION, IDENTITY, SemilinearMap, apply_to_subspace, induced_on_frame
from .linalg import polar_decompose
from .partitions import Tableau
from .subspaces import Subspace, commeasurable, commeasurable_via_complements

__all__ = [
    "CONJUGATION",
    "IDENTITY",
    "FrameRigidityError",
    "FrameTuple",
    "NonFiniteError",
    "SemilinearMap",
    "Subspace",
    "Tableau",
    "apply_to_subspace",
    "commeasurable",
    "commeasurable_via_complements",
    "evert",
    "induced_on_frame",
    "linked_partner",
    "polar_decompose",
    "__version__",
]
