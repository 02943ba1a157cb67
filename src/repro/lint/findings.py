"""Structured lint findings and violation reports.

Both prongs of :mod:`repro.lint` speak the same vocabulary:

* the **static checker** emits :class:`Finding`s — one per declaration
  defect, each carrying a rule id from :mod:`repro.lint.rules`, a severity
  and a ``file:line`` anchor;
* the **runtime sanitizer** emits :class:`Violation`s — the same shape,
  but anchored to the offending block / strategy context instead of a
  source location, and optionally *raised* at the violation site as a
  :class:`LintViolation` so a debugger stops exactly where the invariant
  broke.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.errors import LintError

__all__ = ["Severity", "Finding", "Violation", "LintReport", "LintViolation"]


class Severity(enum.Enum):
    """How bad a finding is; errors fail the lint gate, warnings do not."""

    ERROR = "error"
    WARNING = "warning"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One static-checker diagnostic, anchored to source."""

    rule: str
    severity: Severity
    message: str
    file: str
    line: int
    #: chare class / entry method the finding is about, when applicable
    chare: str = ""
    entry: str = ""

    def render(self) -> str:
        where = f"{self.file}:{self.line}"
        scope = ""
        if self.chare:
            scope = f" [{self.chare}{'.' + self.entry if self.entry else ''}]"
        return f"{where}: {self.rule} {self.severity.value}{scope}: {self.message}"


@dataclasses.dataclass(frozen=True)
class Violation:
    """One runtime-sanitizer diagnostic, anchored to runtime state."""

    rule: str
    message: str
    #: block name the invariant broke on ("" for machine-wide invariants)
    block: str = ""
    #: simulated time of detection (None when no environment is attached)
    at: float | None = None
    #: extra structured context (strategy name, device, refcount, ...)
    context: dict[str, _t.Any] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        at = f" t={self.at:.6g}" if self.at is not None else ""
        blk = f" block={self.block!r}" if self.block else ""
        ctx = "".join(f" {k}={v!r}" for k, v in sorted(self.context.items()))
        return f"{self.rule}{at}{blk}: {self.message}{ctx}"


class LintViolation(LintError):
    """Raised by the sanitizer (in ``raise`` mode) at the violation site."""

    def __init__(self, violation: Violation):
        super().__init__(violation.render())
        self.violation = violation

    @property
    def rule(self) -> str:
        return self.violation.rule


class LintReport:
    """An ordered collection of findings with gate semantics."""

    def __init__(self, findings: _t.Iterable[Finding] = ()):
        self.findings: list[Finding] = list(findings)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: _t.Iterable[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def ok(self, *, strict: bool = False) -> bool:
        """True when the gate passes (no errors; no warnings if strict)."""
        if strict:
            return not self.findings
        return not self.errors

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(f"{len(self.errors)} error(s), "
                     f"{len(self.warnings)} warning(s)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> _t.Iterator[Finding]:
        return iter(self.findings)

    def __repr__(self) -> str:
        return (f"<LintReport errors={len(self.errors)} "
                f"warnings={len(self.warnings)}>")
