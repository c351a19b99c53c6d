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


def resolved_counts(tickets: Iterable[Ticket],
                    engineers: Iterable[str] = ()) -> dict[str, int]:
    """Resolved-ticket counts per final assignee, starting from a zero
    count for each of `engineers` in their order."""
    counts = dict.fromkeys(engineers, 0)
    for t in tickets:
        if t.state is WorkflowState.DONE and t.assignee is not None:
            counts[t.assignee] = counts.get(t.assignee, 0) + 1
    return counts


@dataclass(frozen=True)
class DistributionReport:
    team_id: str
    period: str
    tickets_total: int
    engineers: int
    per_engineer: dict[str, int]
    median: float
    max: float
    avg: float
    std: float


@dataclass(frozen=True)
class ResolutionReport:
    team_id: str
    period: str
    avg_resolution: timedelta
    formatted: str


def build_distribution_report(team_id: str, period: str,
                              per_engineer: dict[str, int]) -> DistributionReport:
    counts = list(per_engineer.values())
    median, mx, avg, std = distribution_stats(counts)
    return DistributionReport(
        team_id=team_id,
        period=period,
        tickets_total=sum(counts),
        engineers=len(counts),
        per_engineer=dict(per_engineer),
        median=median,
        max=mx,
        avg=avg,
        std=std,
    )


def build_resolution_report(team_id: str, period: str,
                            tickets: Iterable[Ticket]) -> ResolutionReport:
    tickets = list(tickets)
    resolved = [t for t in tickets
                if t.state is WorkflowState.DONE and t.resolved_at is not None]
    if resolved:
        total = sum((resolution_time(t) for t in resolved), timedelta(0))
        avg = total / len(resolved)
    else:
        avg = timedelta(0)
    return ResolutionReport(
        team_id=team_id,
        period=period,
        avg_resolution=avg,
        formatted=format_duration(avg),
    )


@dataclass(frozen=True)
class ComparisonReport:
    team_id: str
    pre_dist: DistributionReport
    post_dist: DistributionReport
    pre_res: ResolutionReport
    post_res: ResolutionReport
    std_delta: float
    avg_delta: float
    resolution_delta: timedelta
    std_reduced: bool
    resolution_reduced: bool

    def render(self) -> str:
        table = render_table(self.team_id, [(self.pre_dist, self.pre_res),
                                            (self.post_dist, self.post_res)])
        flags = (f"std_reduced={str(self.std_reduced).lower()} "
                 f"resolution_reduced={str(self.resolution_reduced).lower()}")
        return f"{table}\n{flags}"


def render_table(team_id: str,
                 rows: Iterable[tuple[DistributionReport, ResolutionReport]],
                 ) -> str:
    """One line per period: distribution statistics and average resolution
    time under a fixed-width header."""
    lines = [f"team {team_id}",
             f"{'period':8} {'#tickets':>8} {'#engg':>6} {'median':>8} "
             f"{'max':>6} {'avg':>8} {'std':>8} {'resolution':>11}"]
    for dist, res in rows:
        lines.append(
            f"{dist.period:8} {dist.tickets_total:>8} "
            f"{dist.engineers:>6} {round2(dist.median):>8.2f} "
            f"{dist.max:>6.0f} {round2(dist.avg):>8.2f} "
            f"{round2(dist.std):>8.2f} {res.formatted:>11}")
    return "\n".join(lines)


def compare_periods(pre_dist: DistributionReport, pre_res: ResolutionReport,
                    post_dist: DistributionReport,
                    post_res: ResolutionReport) -> ComparisonReport:
    if pre_dist.team_id != post_dist.team_id:
        raise ValueError("reports compare different teams")
    return ComparisonReport(
        team_id=pre_dist.team_id,
        pre_dist=pre_dist,
        post_dist=post_dist,
        pre_res=pre_res,
        post_res=post_res,
        std_delta=post_dist.std - pre_dist.std,
        avg_delta=post_dist.avg - pre_dist.avg,
        resolution_delta=post_res.avg_resolution - pre_res.avg_resolution,
        std_reduced=post_dist.std < pre_dist.std,
        resolution_reduced=post_res.avg_resolution < pre_res.avg_resolution,
    )


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------

DISTRIBUTION_CSV_HEADER = "team,period,tickets,engineers,median,max,avg,std"
RESOLUTION_CSV_HEADER = "team,period,avg_hours,formatted"


def distribution_csv(reports: Iterable[DistributionReport]) -> str:
    out = io.StringIO()
    out.write(DISTRIBUTION_CSV_HEADER + "\n")
    for r in reports:
        out.write(f"{r.team_id},{r.period},{r.tickets_total},{r.engineers},"
                  f"{round2(r.median):.2f},{round2(r.max):.2f},"
                  f"{round2(r.avg):.2f},{round2(r.std):.2f}\n")
    return out.getvalue()


def resolution_csv(reports: Iterable[ResolutionReport]) -> str:
    out = io.StringIO()
    out.write(RESOLUTION_CSV_HEADER + "\n")
    for r in reports:
        hours = r.avg_resolution.total_seconds() / 3600.0
        out.write(f"{r.team_id},{r.period},{round2(hours):.2f},"
                  f"{r.formatted}\n")
    return out.getvalue()
