"""Exception types shared across the package."""


class SparseBrdfError(Exception):
    """Base class for all package-specific errors."""


class MerlFormatError(SparseBrdfError):
    """Malformed MERL file: bad header dimensions or payload length."""


class BundleFormatError(SparseBrdfError):
    """A dictionary bundle file disagrees with its manifest."""


class DomainError(SparseBrdfError, ValueError):
    """An angle or grid index lies outside its admissible range."""


class InvalidSampleError(SparseBrdfError):
    """A measured BRDF holds no valid value at a cell that a support samples."""


class EmptyMaskError(SparseBrdfError):
    """A validity mask contains no valid cells."""


class EmptyCorpusError(SparseBrdfError):
    """An operation requiring at least one material received none."""


class ShapeMismatchError(SparseBrdfError, ValueError):
    """Array shapes are inconsistent with each other."""


class ProvenanceMismatchError(SparseBrdfError):
    """Mapped data and reference signal come from different pipelines."""


class InconsistentCorpusError(SparseBrdfError):
    """Training inputs were mapped against different references or masks."""


class SingularMatrixError(SparseBrdfError):
    """A matrix that must be invertible (or full rank) is numerically singular."""


class RankCollapseError(SparseBrdfError):
    """Selected dictionary columns became numerically dependent."""


class ZeroColumnError(SparseBrdfError):
    """A dictionary column has zero or non-finite norm and cannot be normalized."""


class CoherenceBoundError(SparseBrdfError):
    """The coherence assumption of the recovery bound does not hold.

    Callers should treat a failed assumption as "bound not applicable",
    not as a failed check.
    """


class IndexOutOfRangeError(SparseBrdfError, IndexError):
    """A row or grid index exceeds the ambient dimension."""


class UnmappedRowError(SparseBrdfError):
    """A dense row index has no entry in the row map."""


class ParameterRangeError(SparseBrdfError, ValueError):
    """A material parameter lies outside its documented range."""


class TooLargeError(SparseBrdfError):
    """An exhaustive enumeration would exceed its safety bound."""


class ConfigError(SparseBrdfError):
    """Invalid or inconsistent run configuration."""


class InvalidKError(ConfigError, ValueError):
    """Requested atom or fold count is out of range."""


class BudgetTooLargeError(ConfigError, ValueError):
    """Sample budget exceeds what the dictionary can support."""


class InvalidMError(ConfigError, ValueError):
    """Requested sample count is out of range."""
