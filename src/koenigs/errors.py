"""Exception taxonomy shared by every module.

All errors raised on purpose derive from KoenigsError so callers can
catch the package's failures without swallowing genuine bugs.
"""


class KoenigsError(Exception):
    """Base class for every deliberate failure in this package."""


class DomainError(KoenigsError):
    """A parameter or coordinate violates its admissible range.

    The message names the offending quantity and the bound it violates.
    """


class ConstantCurvature(DomainError):
    """The parameter value lands on a constant-curvature degeneration.

    These points are excluded: the metric collapses to a space form and
    the extra integrals lose their meaning.  Subclass of DomainError so
    a plain domain check still catches it.
    """


class ChartError(KoenigsError):
    """A coordinate sits within 1e-12 of a chart boundary."""


class NoGlobalStructure(KoenigsError):
    """Requested a global construction on the local-only family."""


class NoMotion(KoenigsError):
    """The energy level carries no real trajectory at this (E, L)."""


class OutOfDomain(KoenigsError):
    """A query point lies outside the regime's coordinate domain."""


class BoundaryReached(KoenigsError):
    """Integration hit a chart edge.  Carries the partial result."""

    def __init__(self, t, point, trajectory=None, detail=None):
        super().__init__(f"chart boundary reached at t={t:.6g}"
                         + (f"; {detail}" if detail else ""))
        self.t = t
        self.point = point
        self.trajectory = trajectory


class StepFailure(KoenigsError):
    """The integrator could not advance within tolerance."""


class NotBounded(KoenigsError):
    """The regime is unbounded, so closure or actions are undefined."""


class NotClosedRegime(KoenigsError):
    """Action-angle machinery asked for outside the closed window."""


class QuadratureFailure(KoenigsError):
    """A numerical integral failed its internal consistency check."""


class NoBoundState(KoenigsError):
    """Shooting found fewer bound states than the requested index."""


class ConvergenceFailure(KoenigsError):
    """An iterative solve exhausted its budget without converging."""
