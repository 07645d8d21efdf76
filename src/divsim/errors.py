"""Exception types shared across the package."""

import copyreg


class DivsimError(Exception):
    """Base class for every error raised by this package."""

    def __reduce__(self):
        # Exception's own reduce calls the class on ``args``, the message,
        # which is not what a subclass's __init__ takes. Rebuild the message
        # and attributes as they are, without calling __init__.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class UnknownAction(DivsimError):
    """A plan referenced an action id that the problem does not declare."""

    def __init__(self, name):
        super().__init__(f"unknown action: {name!r}")
        self.name = name


class InapplicableAction(DivsimError):
    """An action was applied in a state where its preconditions do not hold.

    ``index`` is the plan position when the error comes from replaying a plan,
    and None when a domain step was called directly.
    """

    def __init__(self, reason, index=None):
        msg = reason if index is None else f"plan step {index}: {reason}"
        super().__init__(msg)
        self.reason = reason
        self.index = index


class CostBoundExceeded(DivsimError):
    def __init__(self, cost, bound):
        super().__init__(f"cost {cost} exceeds bound {bound}")
        self.cost = cost
        self.bound = bound


class NotAGoalPlan(DivsimError):
    """A behaviour was requested for a plan whose final state is not a goal."""


class ParseError(DivsimError):
    """Malformed formula or instance text.

    ``position`` is a character offset into the input when known, and
    ``expected`` describes what the parser was looking for.
    """

    def __init__(self, message, position=None, expected=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
        self.expected = expected


class LevelInvalid(DivsimError):
    """A tile level violates a structural invariant (unsettled, pre-matched...)."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class ScenarioInvalid(DivsimError):
    """A network scenario violates a structural invariant."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class BudgetExceeded(DivsimError):
    """A search ran out of wall-clock time or generated-node budget.

    Distinguishable from genuine exhaustion: exhaustion is a normal return,
    this is an error carrying the budget kind and, when raised by a top-level
    planner, the partial result assembled so far.
    """

    def __init__(self, kind, partial=None):
        super().__init__(f"search budget exceeded ({kind})")
        self.kind = kind
        self.partial = partial


class OracleTooLarge(DivsimError):
    """The brute-force oracle's guard tripped.

    The oracle queues one path per distinct (state, cost, goal order so far)
    key. ``count`` is the number of keys it was about to hold, one past
    ``limit``; the search stops there rather than grow without bound.
    """

    def __init__(self, count, limit):
        super().__init__(f"oracle search passed {limit} distinct (state, cost, goal order) keys")
        self.count = count
        self.limit = limit
