"""Check-result records shared by the verification entry points."""

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.name}" + (f"  [{self.detail}]" if self.detail else "")


def render(title: str, checks: list[CheckResult]) -> str:
    """A titled block, one line per check, closed by the number of checks and of failures."""
    failed = sum(not c.ok for c in checks)
    return "\n".join([f"== {title} ==", *(c.line() for c in checks), f"-- {len(checks)} checks, {failed} failed"])
