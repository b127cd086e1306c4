"""Policy Decision Point and Policy Enforcement Point.

The player embeds a PDP loaded with the platform policy (optionally
extended by content-provider policies shipped on the disc) and wraps
resource access in a PEP — "based on the adopted policy, the platform
can allow or reject the rights to the resources" (§4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PermissionDeniedError, PolicyError
from repro.xacml.combining import DENY_OVERRIDES, combine
from repro.xacml.model import Decision, Policy, Request


@dataclass
class PDP:
    """Evaluates requests against an ordered set of policies.

    *policy_combining* combines the per-policy decisions (default
    deny-overrides, the conservative choice for a CE device).
    """

    policies: list[Policy] = field(default_factory=list)
    policy_combining: str = DENY_OVERRIDES

    def evaluate_policy(self, policy: Policy, request: Request) -> Decision:
        if not policy.target.applies(request):
            return Decision.NOT_APPLICABLE
        try:
            decisions = [rule.evaluate(request) for rule in policy.rules]
        except PolicyError:
            return Decision.INDETERMINATE
        return combine(policy.combining, decisions)

    def evaluate(self, request: Request) -> Decision:
        decisions = (
            self.evaluate_policy(policy, request)
            for policy in self.policies
        )
        return combine(self.policy_combining, decisions)


@dataclass
class PEP:
    """Enforcement wrapper: deny-biased gate in front of resources.

    Anything other than an explicit PERMIT is refused ("deny-biased
    PEP" in XACML terms) — the correct bias for executing downloaded
    applications.
    """

    pdp: PDP
    audit_log: list[tuple[str, Decision]] = field(default_factory=list)

    def is_permitted(self, request: Request,
                     description: str = "") -> bool:
        decision = self.pdp.evaluate(request)
        self.audit_log.append((description, decision))
        return decision is Decision.PERMIT

    def enforce(self, request: Request, description: str = "") -> None:
        """Raise :class:`PermissionDeniedError` unless PERMIT."""
        if not self.is_permitted(request, description):
            raise PermissionDeniedError(
                f"access denied: {description or 'resource access'}"
            )
