"""The shared rule engine: registry, stable IDs, severities.

Both frontends — the artifact auditor and the code analyzer's rule
packs — declare their rules here.  A rule is metadata plus an ID; the
check logic lives with the frontend, which asks its :class:`Rule` to
mint findings so ID/severity can never drift from the catalog.

Rule ID conventions::

    SEC0xx   artifact structure / wrapping susceptibility
    SEC01x   artifact algorithm strength
    SEC02x   artifact signature coverage / ordering
    SEC03x   artifact permission / policy consistency
    SEC04x   disc-image level checks
    LIN1xx   codebase invariants (per-module AST pack)
    TNT2xx   taint flow          (whole-program packs)
    CON3xx   concurrency safety
    LIF4xx   async lifecycle
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import Finding, Severity


@dataclass(frozen=True)
class Rule:
    """One registered rule (identity + metadata, no check logic)."""

    rule_id: str
    title: str
    severity: Severity
    domain: str  # "artifact" | "code"
    description: str

    def finding(self, location: str, message: str, *, line: int = 0,
                detail: str = "") -> Finding:
        """Mint a finding carrying this rule's ID and severity."""
        return Finding(
            rule_id=self.rule_id, severity=self.severity,
            location=location, message=message, line=line, detail=detail,
        )


_REGISTRY: dict[str, Rule] = {}


def register(rule_id: str, title: str, severity: Severity, domain: str,
             description: str) -> Rule:
    """Register a rule; IDs are unique across both frontends."""
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    if domain not in ("artifact", "code"):
        raise ValueError(f"unknown rule domain {domain!r}")
    rule = Rule(rule_id, title, severity, domain, description)
    _REGISTRY[rule_id] = rule
    return rule


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise ValueError(f"unknown rule {rule_id!r}") from None


def all_rules(domain: str | None = None) -> list[Rule]:
    """The catalog, sorted by ID (optionally one domain)."""
    rules = sorted(_REGISTRY.values(), key=lambda r: r.rule_id)
    if domain is not None:
        rules = [r for r in rules if r.domain == domain]
    return rules


def catalog_lines(domain: str | None = None) -> list[str]:
    """Human-readable rule catalog (the ``--rules`` listing)."""
    lines = []
    for rule in all_rules(domain):
        lines.append(f"{rule.rule_id}  {rule.severity.name.lower():8s} "
                     f"{rule.title}")
        lines.append(f"         {rule.description}")
    return lines
