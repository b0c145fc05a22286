"""Exception types shared across the package."""


class AddressError(IndexError):
    """Page ordinal outside the store's allocated range."""


class CorruptPageError(RuntimeError):
    """Stored bytes do not parse back (short file, bad header, count mismatch)."""


class MissingStoreError(FileNotFoundError):
    """A page file opened for reading does not exist (say, a graph
    directory whose meta.json names a deleted part file)."""


class ContractViolation(ValueError):
    """Caller broke an API precondition (wrong buffer size, unsorted input, double seal)."""


class ConfigError(ValueError):
    """Invalid engine or buffer configuration detected at startup."""


class OversizedVertexError(ValueError):
    """A single vertex's worst-case inbox exceeds the sort memory budget."""

    def __init__(self, vertex: int, need: int, budget: int):
        self.vertex = vertex
        super().__init__(
            f"vertex {vertex} needs {need} bytes of inbox space, "
            f"budget is {budget} bytes"
        )


class IngestError(ValueError):
    """Malformed edge-list input; carries a line number when available."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
