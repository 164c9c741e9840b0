"""Exception types shared across the toolkit."""


class QvistaError(Exception):
    """Base class for all toolkit errors."""


class UnknownVertex(QvistaError):
    pass


class UnknownFixture(QvistaError):
    pass


class MissingLambda(QvistaError):
    pass


class EmptyTile(QvistaError):
    pass


class EmptyLevel(QvistaError):
    pass


class FitFailure(QvistaError):
    """No admissible decay rate below 1 exists within the truncation."""


class LambdaTooLarge(QvistaError):
    """The base raised to the combinatorial constant exceeds the metrization bound 2."""


class KTooLarge(QvistaError):
    """Quasi-metric constant exceeds 2; chain metrization is not applicable."""


class MapNotClosed(QvistaError):
    """A point map leaves the sample set it is supposed to preserve."""


class ResolutionExceeded(QvistaError):
    """Requested cover scale falls below the sample resolution."""


class DoublingUnbounded(QvistaError):
    """A doubling-type count exceeded its cap; the space behaves as non-doubling."""


class SeedNotRepelling(QvistaError):
    pass


class RootFindFailure(QvistaError):
    pass


class ResolutionInsufficient(QvistaError):
    """Grid resolution too coarse to separate pull-back components reliably."""
