from __future__ import annotations

import math
import random
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dispatchbot.metrics import (
    DISTRIBUTION_CSV_HEADER,
    RESOLUTION_CSV_HEADER,
    EmptyInputError,
    NotResolvedError,
    compare_periods,
    distribution_csv,
    distribution_stats,
    format_duration,
    parse_duration,
    period_report,
    resolution_csv,
    resolution_time,
    round2,
)
from dispatchbot.workflow import ReopenMode, WorkflowState, apply_transition, reopen

from .conftest import at, ticket


def oracle_stats(counts):
    """Two-pass reference: sorted-middle median, sum((x-mu)^2)/n std."""
    n = len(counts)
    ordered = sorted(counts)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    mu = sum(counts) / n
    std = math.sqrt(sum((x - mu) ** 2 for x in counts) / n)
    return float(median), float(max(counts)), mu, std


def resolved(tid="T1-1", assignee="e1", hours=10.0):
    t = replace(ticket(tid), assignee=assignee)
    t = apply_transition(t, WorkflowState.WORK_IN_PROGRESS, at(1))
    return apply_transition(t, WorkflowState.DONE, at(hours))


class TestDistributionStats:
    def test_uniform_counts(self):
        assert distribution_stats([5, 5, 5, 5]) == (5.0, 5.0, 5.0, 0.0)

    def test_known_example(self):
        median, mx, avg, std = distribution_stats([1, 2, 3, 4])
        assert (median, mx, avg) == (2.5, 4.0, 2.5)
        assert std == pytest.approx(math.sqrt(1.25))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            distribution_stats([])

    @given(st.lists(st.integers(min_value=0, max_value=500),
                    min_size=1, max_size=40))
    def test_matches_two_pass_oracle(self, counts):
        got = distribution_stats(counts)
        want = oracle_stats(counts)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)

    def test_scale_equivariance(self):
        rng = random.Random(7)
        counts = [rng.randint(0, 99) for _ in range(15)]
        base = distribution_stats(counts)
        scaled = distribution_stats([3 * c for c in counts])
        for b, s in zip(base, scaled):
            assert s == pytest.approx(3 * b)

    def test_published_avg_rounding(self):
        # [DERIVED] spot-checks: totals over headcount, rounded
        # half-away-from-zero to 2 decimals
        cases = [(931, 14, 66.50), (672, 18, 37.33), (673, 14, 48.07),
                 (89, 14, 6.36), (192, 9, 21.33), (262, 4, 65.50),
                 (466, 12, 38.83), (377, 18, 20.94), (549, 10, 54.90),
                 (62, 9, 6.89), (68, 9, 7.56), (250, 6, 41.67)]
        for total, k, want in cases:
            assert round2(total / k) == want


class TestRound2:
    def test_half_rounds_away_from_zero(self):
        assert round2(2.675) == 2.68
        assert round2(0.125) == 0.13
        assert round2(-0.125) == -0.13

    def test_representation_not_binary_float(self):
        # 2.675 is stored below 2.675 in binary; rounding must follow the
        # decimal literal, not the stored value
        assert round2(1.005) == 1.01


class TestDurations:
    def test_format_examples(self):
        # [DERIVED] 285h -> 11d:21h, 170h -> 7d:02h
        assert format_duration(timedelta(hours=285)) == "11d:21h"
        assert format_duration(timedelta(hours=170)) == "7d:02h"
        assert format_duration(timedelta(0)) == "0d:00h"

    def test_minutes_truncate(self):
        assert format_duration(timedelta(hours=25, minutes=59)) == "1d:01h"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(timedelta(seconds=-1))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_parse_round_trip(self, hours):
        d = timedelta(hours=hours)
        assert parse_duration(format_duration(d)) == d

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_duration("11:21")


class TestResolutionTime:
    def test_creation_to_done(self):
        assert resolution_time(resolved(hours=10)) == timedelta(hours=10)

    def test_unresolved_rejected(self):
        with pytest.raises(NotResolvedError):
            resolution_time(ticket())

    def test_reopen_uses_final_resolution(self):
        t = resolved(hours=10)
        t = reopen(t, ReopenMode.TO_SAME_ENGINEER, at(20))
        with pytest.raises(NotResolvedError):
            resolution_time(t)
        t = apply_transition(t, WorkflowState.DONE, at(30))
        assert resolution_time(t) == timedelta(hours=30)


def report(period, counts, hours, team="team1"):
    """A period whose engineers resolved `counts` tickets, each in
    `hours`."""
    return period_report(team, period,
                         [resolved(f"T1-{e}-{i}", e, hours)
                          for e, n in counts.items() for i in range(n)])


class TestReports:
    def pre(self):
        return report("pre", {"e1": 30, "e2": 2, "e3": 1}, 285)

    def post(self):
        return report("post", {"e1": 11, "e2": 11, "e3": 11}, 170)

    def test_comparison_flags(self):
        cmp = compare_periods(self.pre(), self.post())
        assert cmp.std_reduced and cmp.resolution_reduced
        assert cmp.post.avg_resolution - cmp.pre.avg_resolution == \
            timedelta(hours=-115)

    def test_comparison_rejects_team_mismatch(self):
        other = report("post", {"e1": 1}, 170, team="team2")
        with pytest.raises(ValueError):
            compare_periods(self.pre(), other)

    def test_render_contains_table_and_flags(self):
        text = compare_periods(self.pre(), self.post()).render()
        assert "11d:21h" in text and "7d:02h" in text
        assert "std_reduced=true" in text
        assert "resolution_reduced=true" in text

    def test_distribution_csv(self):
        lines = distribution_csv(
            [report("pre", {"e1": 1, "e2": 2, "e3": 3}, 285)]).splitlines()
        assert lines[0] == DISTRIBUTION_CSV_HEADER
        assert lines[1] == "team1,pre,6,3,2.00,3.00,2.00,0.82"

    def test_resolution_csv(self):
        lines = resolution_csv([report("pre", {"e1": 1}, 285)]).splitlines()
        assert lines[0] == RESOLUTION_CSV_HEADER
        assert lines[1] == "team1,pre,285.00,11d:21h"

    def test_no_resolved_tickets_reports_zero(self):
        r = period_report("team1", "pre", [ticket()])
        assert r.formatted == "0d:00h"
        assert r.per_engineer == {"(none)": 0}

    def test_roster_engineers_count_from_zero(self):
        r = period_report("team1", "pre", [resolved("T1-1", "e3")],
                          engineers=["e1", "e2", "e3"])
        assert r.per_engineer == {"e1": 0, "e2": 0, "e3": 1}
        assert (r.tickets_total, r.engineers) == (1, 3)
