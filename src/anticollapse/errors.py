"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed input: bad face, unknown vertex, wrong domain."""


class StepError(InputError):
    """An elementary move whose precondition does not hold on the current complex."""


class SizeError(InputError):
    """A computation was requested beyond its guard: an exhaustive
    enumeration, or a complex with more faces than complexes.MAX_FACES."""
