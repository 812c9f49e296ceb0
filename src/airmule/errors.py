"""Exceptions shared across the planning pipeline."""


class PlanningError(Exception):
    """Base class for all planner errors."""


class Infeasible(PlanningError):
    """No feasible plan or tour exists for the given instance."""


class InstanceTooLarge(PlanningError):
    """The exact solver refuses instances above its cluster cap, or whose
    DP tables would exceed its byte bound."""


class NoFeasibleTour(PlanningError):
    """The heuristic solver failed to construct a feasible tour."""


class SamplingExhausted(PlanningError):
    """Random instance generation hit its rejection-sampling cap."""
