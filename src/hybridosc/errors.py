"""Exception types shared across the library."""


class HybridOscError(Exception):
    """Base class for all library-specific failures."""


class NotStable(HybridOscError):
    """The deterministic drift admits no stable fixed point."""


class SingularSystem(HybridOscError):
    """A linear solve is rank-deficient beyond tolerance."""


class CouplingZero(HybridOscError):
    """Closed forms carry 1/coupling factors and are singular at zero coupling."""


class PoleOnAxis(HybridOscError):
    """A denominator zero sits (numerically) on the real frequency axis."""


class DegeneratePoles(HybridOscError):
    """Two poles coincide too closely for residue arithmetic to be trusted."""


class ClassificationFailure(HybridOscError):
    """Quadrant selection of the independent pole pair is ambiguous."""


class OverdampedUnsupported(HybridOscError):
    """Small-coupling closed forms require the underdamped regime."""


class PerfectCorrelation(HybridOscError):
    """|r| is numerically 1; the Gaussian mutual information diverges."""


class TradeoffViolation(HybridOscError):
    """Nonzero coupling at D = 0, where the bound 4*D*D0 >= 1 cannot be met."""


class NumericalOverflow(HybridOscError):
    """A trajectory left the representable range during integration."""
