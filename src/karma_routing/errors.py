"""Exception types shared across the package."""


class KarmaRoutingError(Exception):
    """Base class for all karma-routing errors."""


class DegenerateOptimumError(KarmaRoutingError):
    """The target flow has a zero component, so no conserving price exists."""


class InfeasibleHorizonError(KarmaRoutingError):
    """No admissible integer price pair exists for the given horizon."""


class InfeasibleKarmaError(KarmaRoutingError):
    """An agent's karma is below the feasibility floor of its planning problem."""


class ConvergenceError(KarmaRoutingError):
    """A solver's result failed its certification: a stationary distribution
    that one chain step moves by more than the certification bound."""
