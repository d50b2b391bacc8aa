"""Exception types shared across the library."""


class ScsoptError(Exception):
    """Base class for all scsopt errors."""


class DimensionMismatch(ScsoptError):
    """Inputs have mutually inconsistent shapes."""


class InfeasibleRegion(ScsoptError):
    """The polyhedron {Az = b, z >= lb} is empty."""


class RecourseInfeasible(ScsoptError):
    """A second-stage program is infeasible at the given first-stage point."""

    def __init__(self, message, scenario_index=None):
        super().__init__(message)
        self.scenario_index = scenario_index


class NumericalBreakdown(ScsoptError):
    """An LP/QP engine lost numerical reliability (ill-conditioned basis, pivot limit)."""


class NonPositiveDelta(ScsoptError):
    """The sampling radius must be strictly positive."""


class MismatchedInstances(ScsoptError):
    """Run configurations meant to be compared do not share instance and seed."""


class UnsupportedSolverForInstance(ScsoptError):
    """The requested solver cannot run on this instance (e.g. extensive form on infinite support)."""


class ParseError(ScsoptError):
    """Base class for instance-file parsing errors."""


class MalformedSection(ParseError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DuplicateName(ParseError):
    """A row/column name or coefficient position was declared twice."""


class UnknownRow(ParseError):
    """A coefficient references a row that was never declared."""


class UnknownName(ParseError):
    """A TIME/STOCH entry references a name absent from the CORE file."""


class NotTwoPeriods(ParseError):
    """The TIME file does not split the model into exactly two non-empty stages."""


class ProbabilityNotSummingToOne(ParseError):
    """An independent discrete marginal's probabilities do not sum to one."""


class UnsupportedStochType(ParseError):
    """The STOCH file uses a stochastic structure outside the supported subset."""


class UnsupportedStructure(ParseError):
    """The instance places randomness or structure where the model does not allow it."""
