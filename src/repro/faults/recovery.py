"""Recovery policy: timeouts, bounded retries, rollback.

The cluster consults one :class:`RecoveryPolicy` while executing
every adaptation plan (the default policy when none is given):

- every action attempt gets a **timeout** relative to its sampled
  duration (a stalled action that blows past it is abandoned and
  counted as a failure);
- a failed attempt is **retried** after a bounded exponential backoff,
  up to ``max_attempts`` total tries;
- when an action exhausts its retries (or a host crash invalidates the
  plan), the partially applied prefix is **rolled back** by applying
  the inverse of each completed action in reverse order, restoring the
  exact pre-plan :class:`~repro.core.config.Configuration` (see
  :func:`repro.core.actions.invert_action` and DESIGN.md §10).

Example::

    >>> policy = RecoveryPolicy()
    >>> [policy.backoff_seconds(attempt) for attempt in (1, 2, 3, 4, 5)]
    [10.0, 20.0, 40.0, 80.0, 120.0]
    >>> policy.timeout_seconds(20.0)
    60.0
    >>> policy.timeout_seconds(1.0)   # short actions get the floor
    45.0
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the retry/timeout/rollback machinery."""

    #: Total tries per action (the first attempt plus retries).
    max_attempts: int = 3
    #: Backoff before retry ``n`` is ``base * factor**(n-1)`` seconds,
    #: capped at ``backoff_max_seconds``.
    backoff_base_seconds: float = 10.0
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 120.0
    #: An attempt is abandoned once it runs ``timeout_factor`` times its
    #: sampled duration (but never sooner than ``min_timeout_seconds``).
    timeout_factor: float = 3.0
    min_timeout_seconds: float = 45.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max_seconds < self.backoff_base_seconds:
            raise ValueError("backoff_max_seconds must be >= the base")
        if self.timeout_factor < 1.0:
            raise ValueError("timeout_factor must be >= 1")
        if self.min_timeout_seconds <= 0:
            raise ValueError("min_timeout_seconds must be positive")

    def backoff_seconds(self, attempt: int) -> float:
        """Backoff after failed attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        raw = self.backoff_base_seconds * self.backoff_factor ** (attempt - 1)
        return min(raw, self.backoff_max_seconds)

    def timeout_seconds(self, expected_duration: float) -> float:
        """Abandonment deadline for an attempt of the given duration."""
        return max(
            self.min_timeout_seconds, self.timeout_factor * expected_duration
        )
