"""Exception types shared across the package."""


class ElastorayError(Exception):
    """Base class for all errors raised by this package."""


def _checked(out):
    """A batch-of-one view's row ``out``, raised if it is an error."""
    if isinstance(out, ElastorayError):
        raise out
    return out


class MediumFormatError(ElastorayError):
    """Medium description file or parameters are malformed."""


class OutOfDomainError(ElastorayError):
    """Evaluation point lies outside the closed domain."""


class NotOnBoundaryError(ElastorayError):
    """Point expected on the boundary is not (within tolerance)."""


class DegenerateDirectionError(ElastorayError):
    """Covector direction is zero or analytically null (xi . xi = 0)."""


class UnsupportedPotentialError(ElastorayError):
    """Residual stress potential is not in the supported polynomial family."""


class GlancingError(ElastorayError):
    """Boundary covector is glancing for a mode that must be non-glancing.

    The offending discriminant magnitude is stored in ``discriminant``.
    """

    def __init__(self, message, discriminant=None):
        super().__init__(message)
        self.discriminant = discriminant


class SingularResidueError(ElastorayError):
    """Residue matrix preconditions fail (null direction or z_S == z_P)."""


class ContourError(ElastorayError):
    """No admissible quadrature contour separates selected from rejected roots."""


class DegenerateMutingError(ElastorayError):
    """Muting direction undefined (xi_t parallel to nu, e.g. normal incidence)."""


class FrameDegenerateError(ElastorayError):
    """Tangential frequency vanishes; the flattened frame is undefined."""


class FrameConditionError(ElastorayError):
    """Polarization basis too ill-conditioned to invert (near-glancing)."""


class LopatinskiError(ElastorayError):
    """Lopatinski margin is non-positive for an admissible medium, or no
    sampled covector was usable."""


class EvanescentModeError(ElastorayError):
    """Mode has no real characteristic root at this covector; nothing to trace."""


class GlancingExitError(ElastorayError):
    """Ray meets the boundary tangentially; the exit covector is unreliable."""


class StepControlError(ElastorayError):
    """Adaptive step control failed (step underflow or drift budget exceeded)."""


class MaxStepsError(ElastorayError):
    """Integrator exceeded the step budget before reaching the boundary."""


class DistanceError(ElastorayError):
    """Boundary distance solve failed to reach the miss tolerance."""
