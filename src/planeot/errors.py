"""Exception hierarchy for the planeot package."""


class PlaneOTError(Exception):
    """Base class for all planeot errors."""


class NonPositiveDensity(PlaneOTError):
    """A density value is zero or negative."""


class GridTooSmall(PlaneOTError):
    """Grid has too few nodes for the requested stencil."""


class OutOfRange(PlaneOTError):
    """An evaluation point lies outside the admissible domain."""


class DegenerateDensity(PlaneOTError):
    """A density denominator fell below the positivity floor."""


class MarginalViolation(PlaneOTError):
    """A candidate density does not match the prescribed marginals."""


class PositivityViolated(PlaneOTError):
    """A perturbation would push a density below the positivity floor."""


class GeometryInvalid(PlaneOTError):
    """Corner-perturbation rectangles are malformed or overlap the domain edge."""


class QuantileRangeError(PlaneOTError):
    """A derivative ratio left [0, 1] by more than the configured guard."""


class LinearSolveDiverged(PlaneOTError):
    """The sparse linear solver failed to reach the residual tolerance."""


class NegativeMassExcessive(PlaneOTError):
    """Density recovery had to floor away more than the allowed mass."""


class SizeGuard(PlaneOTError):
    """Requested discrete problem exceeds the desk-scale size guard."""


class Infeasible(PlaneOTError):
    """Internal error: a balanced transportation problem reported infeasible."""


class FloorSaturation(PlaneOTError):
    """Marginal projection cannot restore feasibility above the positivity floor."""


class ConfigError(PlaneOTError):
    """A run configuration is malformed; message names the offending field."""
