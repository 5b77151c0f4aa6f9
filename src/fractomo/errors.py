"""Exception hierarchy shared by all fractomo modules.

Three families matter for exit codes of the command line runner:

* :class:`ConfigError` -- the input configuration is malformed or
  inconsistent (detected before any solve starts),
* :class:`VerificationError` -- a mathematical invariant that should hold
  by construction was violated at runtime,
* everything else derived from :class:`FractomoError` -- ordinary runtime
  failures (bad arguments, numerical breakdown).
"""


class FractomoError(Exception):
    """Base class for all package specific errors."""


class ConfigError(FractomoError):
    """Configuration file is malformed or violates a declared relation."""


# --- mesh -----------------------------------------------------------------

class NonConformingSpacing(FractomoError):
    """Grid spacing does not divide the computational box."""


class EmptyRegion(FractomoError):
    """A declared region captures zero mesh nodes."""


class RegionOverlapViolation(FractomoError):
    """A measurement region intersects the closure of the domain."""


class UnknownRegion(FractomoError):
    """Requested region label does not exist on the mesh."""


# --- assembly -------------------------------------------------------------

class QuadratureFailure(FractomoError):
    """Singular-panel quadrature self check did not meet its tolerance."""


class NonPositiveGamma(FractomoError):
    """Diffusion coefficient is not bounded below by a positive constant."""


class InsufficientPadding(FractomoError):
    """Input of the spectral operator is not padded enough from the box edge."""


class InsufficientMemory(FractomoError):
    """The dense forms of a run would not fit in the available memory."""


# --- solver / eigen -------------------------------------------------------

class VerificationError(FractomoError):
    """A runtime invariant that should hold by construction failed."""


class CoercivityLost(VerificationError):
    """Interior system block has a nonpositive eigenvalue.

    Signals that the potential left the admissible multiplier regime
    (its small part is no longer dominated by gamma0/delta0).
    """


class EigenFailure(FractomoError):
    """Generalized eigenvalue computation failed to converge."""


# --- DN map / reduction ---------------------------------------------------

class SupportViolation(FractomoError):
    """Exterior datum has nonzero values on interior degrees of freedom."""


class HypothesisViolation(FractomoError):
    """Inputs violate a hypothesis of the identity being checked."""


# --- reconstruction -------------------------------------------------------

class UnresolvableScale(FractomoError):
    """Bump support spans fewer than the minimum number of mesh nodes."""


class OutsideMeasurementSet(FractomoError):
    """Bump center or support leaves the measurement set."""


class ExponentOutOfRange(FractomoError):
    """Integrability exponent incompatible with the interpolation estimate."""


class DecayCheckFailed(VerificationError):
    """Measured potential pairing violated its interpolation bound."""


# --- counterexample -------------------------------------------------------

class GeometryViolation(FractomoError):
    """Dilated construction sets are not pairwise disjoint."""


class NegativeSolution(VerificationError):
    """Discrete solution violates the maximum principle beyond tolerance."""
