"""Exception types shared across the package."""


class FrameRigidityError(Exception):
    """Base class for all library errors."""


class FieldMismatchError(FrameRigidityError):
    """Real and complex operands were mixed without an explicit promotion."""


class AmbientMismatchError(FrameRigidityError):
    """Operands live in spaces of different ambient dimension."""


class ZeroInputError(FrameRigidityError):
    """Every input column is numerically zero."""


class NonFiniteError(FrameRigidityError):
    """An input holds a NaN or infinite entry."""


class SingularMatrixError(FrameRigidityError):
    """A matrix required to be invertible is singular at the working tolerance."""


class ShapeMismatchError(FrameRigidityError):
    """Frame shapes, tableau sizes or component counts do not line up."""


class SizeMismatchError(FrameRigidityError):
    """Partitions of different totals compared under dominance."""


class ChainMismatchError(FrameRigidityError):
    """Refinement arrows composed out of order."""


class IllegalPermutationError(FrameRigidityError):
    """A permutation moves components across different dimensions."""


class NotSemilinearError(FrameRigidityError):
    """A line-map oracle failed verification against its reconstructed map."""


class DegenerateOracleError(FrameRigidityError):
    """A line-map oracle returned probe images that no invertible map produces."""


class InconsistencyError(FrameRigidityError):
    """Two numerically equivalent routes disagreed; indicates a tolerance breakdown."""


class ConfigError(FrameRigidityError):
    """Invalid verification-suite configuration."""
