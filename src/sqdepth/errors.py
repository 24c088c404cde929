"""Exception types shared across the package."""


class SqdepthError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SqdepthError):
    """Malformed ideal or problem-file text, with a 1-based position."""

    def __init__(self, message, line=None, column=None):
        self.reason = message  # the message without its position
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, col {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidPairError(SqdepthError):
    """The two ideals do not form a valid module J/I."""


class CapExceededError(SqdepthError):
    """An enumeration bound (variable count or face count) was exceeded."""
