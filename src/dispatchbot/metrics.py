"""Evaluation statistics: per-engineer ticket distribution, average
resolution time, and pre/post period comparison.

Conventions fixed here and echoed in all report output: standard deviation
is population (divide by n); resolution time runs from creation to the
last transition into Done, queue and blocked time included; rounding is
half-away-from-zero to 2 decimals.
"""

from __future__ import annotations

import io
import statistics
from dataclasses import dataclass
from datetime import timedelta
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Sequence

from .workflow import Ticket, WorkflowState


class EmptyInputError(Exception):
    pass


class NotResolvedError(Exception):
    pass


def round2(x: float) -> float:
    """Round half away from zero to 2 decimals."""
    return float(Decimal(repr(x)).quantize(Decimal("0.01"),
                                           rounding=ROUND_HALF_UP))


def distribution_stats(counts: Sequence[float]) -> tuple[float, float, float, float]:
    """(median, max, avg, population std) of per-engineer ticket counts."""
    if not counts:
        raise EmptyInputError("no counts")
    return (
        float(statistics.median(counts)),
        float(max(counts)),
        sum(counts) / len(counts),
        statistics.pstdev(counts),
    )


def resolution_time(ticket: Ticket) -> timedelta:
    """Creation to (final) resolution; only defined for Done tickets."""
    if ticket.state is not WorkflowState.DONE or ticket.resolved_at is None:
        raise NotResolvedError(ticket.id)
    return ticket.resolved_at - ticket.created_at


def format_duration(d: timedelta) -> str:
    """Render a duration as `Xd:YYh`, minutes truncated."""
    if d < timedelta(0):
        raise ValueError("negative duration")
    hours = int(d.total_seconds() // 3600)
    return f"{hours // 24}d:{hours % 24:02d}h"


def parse_duration(raw: str) -> timedelta:
    """Inverse of format_duration for whole-hour durations."""
    days_part, hours_part = raw.split(":")
    if not days_part.endswith("d") or not hours_part.endswith("h"):
        raise ValueError(f"malformed duration: {raw!r}")
    return timedelta(days=int(days_part[:-1]), hours=int(hours_part[:-1]))


@dataclass(frozen=True)
class PeriodReport:
    """One period's row of the evaluation table: resolved tickets per
    final assignee, their distribution statistics and the average
    resolution time."""

    team_id: str
    period: str
    per_engineer: dict[str, int]
    median: float
    max: float
    avg: float
    std: float
    avg_resolution: timedelta

    @property
    def tickets_total(self) -> int:
        return sum(self.per_engineer.values())

    @property
    def engineers(self) -> int:
        return len(self.per_engineer)

    @property
    def formatted(self) -> str:
        return format_duration(self.avg_resolution)


def period_report(team_id: str, period: str, tickets: Iterable[Ticket],
                  engineers: Iterable[str] = ()) -> PeriodReport:
    """The report over one period's tickets. Counts start from a zero for
    each of `engineers`, in their order; with none given and nothing
    resolved, one `(none)` engineer with a zero count stands in. With
    nothing resolved, the average resolution time is zero."""
    per_engineer = dict.fromkeys(engineers, 0)
    total, resolved = timedelta(0), 0
    for t in tickets:
        if t.state is not WorkflowState.DONE:
            continue
        if t.assignee is not None:
            per_engineer[t.assignee] = per_engineer.get(t.assignee, 0) + 1
        if t.resolved_at is not None:
            total += resolution_time(t)
            resolved += 1
    per_engineer = per_engineer or {"(none)": 0}
    return PeriodReport(team_id, period, per_engineer,
                        *distribution_stats(list(per_engineer.values())),
                        total / resolved if resolved else timedelta(0))


@dataclass(frozen=True)
class ComparisonReport:
    pre: PeriodReport
    post: PeriodReport

    @property
    def std_reduced(self) -> bool:
        return self.post.std < self.pre.std

    @property
    def resolution_reduced(self) -> bool:
        return self.post.avg_resolution < self.pre.avg_resolution

    def render(self) -> str:
        table = render_table(self.pre.team_id, [self.pre, self.post])
        flags = (f"std_reduced={str(self.std_reduced).lower()} "
                 f"resolution_reduced={str(self.resolution_reduced).lower()}")
        return f"{table}\n{flags}"


def render_table(team_id: str, reports: Iterable[PeriodReport]) -> str:
    """One line per period: distribution statistics and average resolution
    time under a fixed-width header."""
    lines = [f"team {team_id}",
             f"{'period':8} {'#tickets':>8} {'#engg':>6} {'median':>8} "
             f"{'max':>6} {'avg':>8} {'std':>8} {'resolution':>11}"]
    for r in reports:
        lines.append(
            f"{r.period:8} {r.tickets_total:>8} "
            f"{r.engineers:>6} {round2(r.median):>8.2f} "
            f"{r.max:>6.0f} {round2(r.avg):>8.2f} "
            f"{round2(r.std):>8.2f} {r.formatted:>11}")
    return "\n".join(lines)


def compare_periods(pre: PeriodReport, post: PeriodReport) -> ComparisonReport:
    if pre.team_id != post.team_id:
        raise ValueError("reports compare different teams")
    return ComparisonReport(pre, post)


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------

DISTRIBUTION_CSV_HEADER = "team,period,tickets,engineers,median,max,avg,std"
RESOLUTION_CSV_HEADER = "team,period,avg_hours,formatted"


def distribution_csv(reports: Iterable[PeriodReport]) -> str:
    out = io.StringIO()
    out.write(DISTRIBUTION_CSV_HEADER + "\n")
    for r in reports:
        out.write(f"{r.team_id},{r.period},{r.tickets_total},{r.engineers},"
                  f"{round2(r.median):.2f},{round2(r.max):.2f},"
                  f"{round2(r.avg):.2f},{round2(r.std):.2f}\n")
    return out.getvalue()


def resolution_csv(reports: Iterable[PeriodReport]) -> str:
    out = io.StringIO()
    out.write(RESOLUTION_CSV_HEADER + "\n")
    for r in reports:
        hours = r.avg_resolution.total_seconds() / 3600.0
        out.write(f"{r.team_id},{r.period},{round2(hours):.2f},"
                  f"{r.formatted}\n")
    return out.getvalue()
