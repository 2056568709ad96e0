"""The Calibro exception hierarchy — the public error surface.

Every error the pipeline raises deliberately derives from
:class:`CalibroError`, so embedders (and the CLI) can catch one base
class and map each family to a stable exit code instead of letting a
traceback escape.  The subclasses also derive from the builtin the code
historically raised (``ValueError`` for argument/validation problems),
so existing ``except ValueError`` callers keep working.

| Error | Raised for | CLI exit code |
|---|---|---|
| :class:`CalibroError` | any pipeline failure (base class) | 1 |
| :class:`ConfigError` | invalid configuration or argument values | 2 |
| :class:`OutlineError` | LTBO invariant violations (bad metadata, overlap) | 3 |
| :class:`LinkError` | unresolvable symbol, bad relocation, StackMap drift | 4 |
| :class:`ServiceError` | build-service failures (pool, cache, batch) | 5 |
| :class:`~repro.dex.verifier.VerificationError` | a dex method that fails verification (register, branch, callee, string checks) | 1 |
"""

from __future__ import annotations

__all__ = [
    "CalibroError",
    "ConfigError",
    "LinkError",
    "OutlineError",
    "ServiceError",
]


class CalibroError(Exception):
    """Base class of every deliberate Calibro failure.

    ``exit_code`` is the process exit status the CLI maps the error to
    (documented in ``docs/cli.md``).
    """

    exit_code = 1


class ConfigError(CalibroError, ValueError):
    """An invalid configuration value or argument, rejected up front —
    at :class:`~repro.core.pipeline.CalibroConfig` construction or API
    entry, never deep inside a build."""

    exit_code = 2


class OutlineError(CalibroError, ValueError):
    """An LTBO.2 invariant violation: undecodable words outside declared
    embedded data, overlapping outline occurrences, and kin."""

    exit_code = 3


class LinkError(CalibroError, ValueError):
    """Unresolvable symbol, out-of-range relocation, a StackMap that no
    longer sits on a call boundary, or a malformed OAT image."""

    exit_code = 4


class ServiceError(CalibroError, RuntimeError):
    """A :class:`~repro.service.BuildService` failure: a worker that
    kept failing after retry and serial fallback, an unusable cache
    directory, or a closed service being reused."""

    exit_code = 5
