"""Exception types shared across the toolkit.

Errors fall into three families: document errors (parsing and invariant
validation), analysis errors (graph and request preconditions), and runtime
errors raised by the simulated container infrastructure.
"""


class QuiesceError(Exception):
    """Base class for every error raised by this package."""


class ParseError(QuiesceError):
    """A document is malformed: bad JSON, a record that is not an object, or unknown or missing keys."""


class ValidationError(QuiesceError):
    """A structural invariant of a description document is violated."""


class NameMismatch(QuiesceError):
    """Version diff attempted between descriptors of different components."""


class VersionError(QuiesceError):
    """New descriptor does not carry a strictly higher version."""


class ProtocolViolation(QuiesceError):
    """A component emitted a call its effect automaton does not allow."""


class InconsistentConfiguration(QuiesceError):
    """Operation requires a configuration with an empty consistency report."""


class SnapshotStale(QuiesceError):
    """Snapshot time does not match the reconfiguration window start."""


class UnknownTarget(QuiesceError):
    """Affected-set query names a component that is not deployed."""


class UnknownComponent(QuiesceError):
    """Request targets a component that is not deployed."""


class ScenarioError(QuiesceError):
    """Workload references an unknown component, operation, or queue."""


class UnknownQueue(QuiesceError):
    """Queue operation on a queue that does not exist."""


class AlreadyBarricaded(QuiesceError):
    """Barrier activation on a container whose barrier is not open."""


class NotQuiescent(QuiesceError):
    """Swap attempted while the container barrier is not closed."""


class StateShapeMismatch(QuiesceError):
    """Stateful swap refused: conversational state fields differ."""


class DrainTimeout(QuiesceError):
    """A barrier drain, of a redeploy or a module stop, did not reach quiescence in time."""


class IllegalTransition(QuiesceError):
    """Module lifecycle operation not allowed from the current state."""


class EngineFault(QuiesceError):
    """Internal runtime invariant broke during plan execution."""


class Rejection(QuiesceError):
    """Reconfiguration request refused; carries the safety verdicts.

    ``verdicts`` holds every per-component verdict computed for the request,
    including the unsafe ones that caused the refusal.
    """

    def __init__(self, message: str, verdicts=()):
        super().__init__(message)
        self.verdicts = tuple(verdicts)
