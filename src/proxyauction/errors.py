"""Exception types shared across the package."""


class AuctionError(Exception):
    """Base class for all proxyauction errors."""


class CapacityError(AuctionError):
    """An enumeration would exceed a configured cap."""

    def __init__(self, what: str, required: int, cap: int):
        self.what = what
        self.required = required
        self.cap = cap
        super().__init__(f"{what}: {required} exceeds the cap of {cap}")


class MalformedValuationError(AuctionError):
    """A valuation violates its structural contract (missing table entry, negative value, ...)."""


class ParameterError(AuctionError):
    """A mechanism or generator parameter is outside its admissible range."""


class InfeasibleSolutionError(AuctionError):
    """A fractional solution violates the allocation constraints it claims to satisfy."""


class ContractViolationError(AuctionError):
    """An internal pipeline stage was invoked out of order or on invalid state."""


class FormatError(AuctionError):
    """A serialized file does not match the expected schema."""
