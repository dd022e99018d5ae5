"""Exception hierarchy shared across the package."""


class HanoiError(Exception):
    """Base class for all package errors."""


class DomainError(HanoiError, ValueError):
    """A numeric parameter lies outside its admissible range."""


class UnsupportedFamilyError(HanoiError, ValueError):
    """The sequence family does not declare the limits needed by the operation."""


class AddressError(HanoiError, ValueError):
    """A word address uses letters outside the alphabet or exceeds the level."""


class LevelError(HanoiError, ValueError):
    """A level argument is inconsistent with the graph it refers to."""


class AssemblyError(HanoiError, ValueError):
    """The graph cannot be turned into a valid pencil (e.g. degenerate resistance)."""


class PencilSizeError(HanoiError, ValueError):
    """The pencil or graph is too large for the requested operation or the host."""


class ConvergenceError(HanoiError, RuntimeError):
    """An iterative solver did not reach the required residual."""


class ThresholdAtEigenvalueError(HanoiError, RuntimeError):
    """Inertia counting kept hitting a numerically singular shift."""


class ConnectivityError(HanoiError, RuntimeError):
    """A linear system was singular beyond the expected constant null space."""


class InsufficientDataError(HanoiError, ValueError):
    """Not enough samples survive the fit window policy."""


class ConfigError(HanoiError, ValueError):
    """The run configuration is malformed."""
