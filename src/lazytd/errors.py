"""Exception types raised by the lazytd package."""


class LazyTdError(Exception):
    """Base class for all lazytd errors."""


class NonErgodic(LazyTdError):
    """Power iteration for the stationary measure failed to converge."""


class FullSupportViolation(LazyTdError):
    """The stationary measure has a (numerically) zero entry."""


class SolveFailure(LazyTdError):
    """A linear system that should be regular turned out singular."""


class DimensionMismatch(LazyTdError):
    """Operands with incompatible shapes."""


class DomainError(LazyTdError):
    """Scalar argument outside its admissible range."""


class NonFiniteState(LazyTdError):
    """NaN or Inf appeared in a state that was not blowing up."""


class NotOverParametrized(LazyTdError):
    """Certificate requires a full-rank Jacobian at initialization."""


class NotUnderParametrized(LazyTdError):
    """Certificate requires a rank-deficient Jacobian at initialization."""


class InitNotZero(LazyTdError):
    """Certificate requires the model to vanish at initialization."""


class OddWidth(LazyTdError):
    """Paired (doubled) initialization needs an even number of units."""


class FlatLinearization(LazyTdError):
    """The flow linearized at initialization has no decaying direction."""


class RankCollapse(LazyTdError):
    """Jacobian rank dropped along a trajectory that assumed it constant."""
