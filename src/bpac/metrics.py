"""Running deployment metrics: expert-call share, token premium, realized risk."""

from __future__ import annotations

from dataclasses import dataclass

from .core import StreamObservation
from .engine import Decision


@dataclass
class MetricAccumulator:
    """Prefix sums behind the three headline metrics.

    ``realized_loss`` uses the evaluator channel: it reads the latent loss
    off the observation directly, which the engine itself is never allowed
    to do. Escalated steps contribute zero realized loss because the
    composite system returns the expensive model's answer.
    """

    t: int = 0
    expert_calls: int = 0
    cheap_tokens: int = 0
    expensive_tokens: int = 0
    expensive_tokens_billed: int = 0
    realized_loss: float = 0.0

    def update(self, decision: Decision, obs: StreamObservation) -> "MetricAccumulator":
        self.t += 1
        self.expert_calls += decision.coin
        self.cheap_tokens += obs.tokens_cheap
        self.expensive_tokens += obs.tokens_expensive
        self.expensive_tokens_billed += obs.tokens_expensive * decision.coin
        self.realized_loss += (1 - decision.coin) * obs.latent_loss
        return self

    @property
    def ecp(self) -> float:
        """Fraction of steps routed to the expensive model so far."""
        return self.expert_calls / self.t if self.t else 0.0

    @property
    def er(self) -> float:
        """Average realized loss of the composite system so far."""
        return self.realized_loss / self.t if self.t else 0.0

    @property
    def tp(self) -> float:
        """Tokens spent relative to always calling the expensive model; NaN
        until any expensive-model tokens arrive."""
        if self.expensive_tokens == 0:
            return float("nan")
        return (self.cheap_tokens + self.expensive_tokens_billed) / self.expensive_tokens
