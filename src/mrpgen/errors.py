"""Exception taxonomy shared across the library and the CLI.

Each class carries the CLI exit code it maps to, so ``cli.main`` has one
handler for all of them: 1 for a ``DomainFailure``, an expected outcome of
the probabilistic model (shortfall, retry exhaustion, mismatch, no-fit)
whose ``code`` names it; 2 for any other ``MrpgenError``: a ``ParamsError``
for a refused input, a ``FormatError`` for a container that does not parse.
``cli.main`` itself gives 2 to an ``OSError`` from a path
(``code=io-error``) and 3 to any other exception (``code=internal-error``).
"""


class MrpgenError(Exception):
    """Base class for all library errors."""

    code = "error"
    exit_code = 2


class ParamsError(MrpgenError):
    """An argument, a profile value or a params file is out of its domain."""

    code = "params-error"


class UnknownName(ParamsError, AttributeError):
    """``mrpgen`` has no export or submodule of that name.

    Also an ``AttributeError``, so ``hasattr`` and ``from mrpgen import x``
    keep Python's protocol (the latter raises ``ImportError``).
    """


class FormatError(MrpgenError):
    """An MRP container does not parse, or its header holds an invalid profile."""

    code = "format-error"


class DomainFailure(MrpgenError):
    """An expected outcome of the model, not a bad input; ``code`` names it."""

    exit_code = 1

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


class GenerationFailure(DomainFailure):
    """A segment came up short of its required sample count.

    Carries the failing modulus and segment index so a misbehaving profile
    can be debugged from the error alone.
    """

    def __init__(self, q: int, id_seg: int):
        self.q = q
        self.id_seg = id_seg
        super().__init__("generation-failure",
                         f"segment generation failed at q={q} id_seg={id_seg}")


class RetryExhausted(DomainFailure):
    """The client retry loop ran out of attempts (misconfigured profile)."""

    def __init__(self, attempts: int, last_failure: "GenerationFailure | None" = None):
        self.attempts = attempts
        self.last_failure = last_failure
        detail = f" (last: {last_failure})" if last_failure else ""
        super().__init__("retry-exhausted",
                         f"no valid seed found in {attempts} attempts{detail}")
