"""Exception taxonomy shared across the library and the CLI.

Domain failures (generation shortfalls, mismatches, retry exhaustion) are
expected outcomes of the probabilistic model and map to CLI exit code 1;
configuration and input problems map to exit code 2.
"""


class MrpgenError(Exception):
    """Base class for all library errors."""

    code = "error"


class ConfigError(MrpgenError):
    """Invalid configuration: unknown backend, unsupported block size, etc."""

    code = "config-error"


class ParamsError(MrpgenError):
    """A generation-profile invariant is violated."""

    code = "params-error"


class FormatError(MrpgenError):
    """A file (params text or MRP binary) does not parse."""

    code = "format-error"


class GenerationFailure(MrpgenError):
    """A segment came up short of its required sample count.

    Carries the failing modulus and segment index so a misbehaving profile
    can be debugged from the error alone.
    """

    code = "generation-failure"

    def __init__(self, q: int, id_seg: int):
        self.q = q
        self.id_seg = id_seg
        super().__init__(f"segment generation failed at q={q} id_seg={id_seg}")


class RetryExhausted(MrpgenError):
    """The client retry loop ran out of attempts (misconfigured profile)."""

    code = "retry-exhausted"

    def __init__(self, attempts: int, last_failure: "GenerationFailure | None" = None):
        self.attempts = attempts
        self.last_failure = last_failure
        detail = f" (last: {last_failure})" if last_failure else ""
        super().__init__(f"no valid seed found in {attempts} attempts{detail}")
