"""Structured diagnostics emitted by the verification passes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.verify.rules import RULES, Severity

__all__ = [
    "Diagnostic",
    "TraceInvariantError",
    "VerificationError",
    "format_diagnostics",
    "has_errors",
    "worst_severity",
]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the linter or the sanitizer.

    Attributes
    ----------
    rule_id:      id of the violated :class:`~repro.verify.rules.Rule`
    message:      specific description of this violation
    rank:         MPI rank the finding belongs to (program linter), if any
    location:     trace location id (sanitizer), if any
    call_path:    region call path at the offending action, outermost first
    action_index: index of the offending action in the rank's dry-run
    mode:         timestamp mode (sanitizer timestamp checks), if any
    witness:      happened-before witness: one line per step of the
                  evidence path (race detector / determinism prover)
    """

    rule_id: str
    message: str
    rank: Optional[int] = None
    location: Optional[int] = None
    call_path: Tuple[str, ...] = ()
    action_index: Optional[int] = None
    mode: Optional[str] = None
    witness: Tuple[str, ...] = ()

    @property
    def severity(self) -> str:
        return RULES[self.rule_id].severity

    @property
    def hint(self) -> str:
        return RULES[self.rule_id].hint

    def format(self, with_hint: bool = True) -> str:
        where = []
        if self.rank is not None:
            where.append(f"rank {self.rank}")
        if self.location is not None:
            where.append(f"location {self.location}")
        if self.mode is not None:
            where.append(f"mode {self.mode}")
        if self.call_path:
            where.append("at " + "/".join(self.call_path))
        if self.action_index is not None:
            where.append(f"action #{self.action_index}")
        place = ", ".join(where)
        head = f"[{self.rule_id} {self.severity}]"
        body = f"{place}: {self.message}" if place else self.message
        out = f"{head} {body}"
        for step in self.witness:
            out += f"\n    witness: {step}"
        if with_hint and self.hint:
            out += f"\n    hint: {self.hint}"
        return out


def has_errors(diagnostics: Sequence[Diagnostic]) -> bool:
    return any(d.severity == Severity.ERROR for d in diagnostics)


def worst_severity(diagnostics: Sequence[Diagnostic]) -> Optional[str]:
    """Highest severity present, or ``None`` for a clean result."""
    if not diagnostics:
        return None
    return max(diagnostics, key=lambda d: Severity.rank(d.severity)).severity


def format_diagnostics(
    diagnostics: Sequence[Diagnostic],
    header: Optional[str] = None,
    with_hints: bool = True,
) -> str:
    """Human-readable multi-line report (worst findings first)."""
    lines: List[str] = []
    if header:
        lines.append(header)
    ordered = sorted(
        diagnostics,
        key=lambda d: (-Severity.rank(d.severity), d.rule_id,
                       d.rank if d.rank is not None else -1,
                       d.location if d.location is not None else -1),
    )
    for d in ordered:
        lines.append(d.format(with_hint=with_hints))
    if not diagnostics:
        lines.append("no findings")
    return "\n".join(lines)


@dataclass
class VerificationError(RuntimeError):
    """Raised when a verification pass finds error-severity diagnostics."""

    message: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def __post_init__(self):
        super().__init__(self.message)

    def __str__(self) -> str:
        if not self.diagnostics:
            return self.message
        return self.message + "\n" + format_diagnostics(self.diagnostics)


class TraceInvariantError(RuntimeError):
    """A sanitized run recorded a trace that breaks a trace invariant.

    Raised by ``Measurement(..., sanitize=True)`` at ``finish()`` with the
    error diagnostics of :func:`~repro.verify.sanitize_raw` (or of
    :func:`~repro.verify.find_races`) over the finished trace.
    """

    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__(format_diagnostics(
            diagnostics, header="recorded trace violates trace invariants:"
        ))
