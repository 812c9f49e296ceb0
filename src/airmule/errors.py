"""Exceptions shared across the planning pipeline."""


class PlanningError(Exception):
    """Base class for all planner errors."""


class Infeasible(PlanningError):
    """No feasible plan or tour exists for the given instance."""


class InstanceTooLarge(PlanningError):
    """The instance's matrices would exceed build_instance's byte bound, or
    the exact solver's DP tables would exceed theirs."""


class NoFeasibleTour(PlanningError):
    """The heuristic solver failed to construct a feasible tour."""


class SamplingExhausted(PlanningError):
    """Random instance generation hit its rejection-sampling cap."""
