"""The bot core: team configuration, the board runtime and the periodic
scan-assign-remind cycle.

One BoardRuntime owns one board: its snapshot, event log, cursor, reminder
ledger and outbox. Every mutation goes through `_commit`, which folds a
record into the live snapshot and then appends it to the log. The fold
is all or nothing, so a rejected command leaves both untouched, and a
failed append rebuilds the snapshot from the log: live state and replay
never diverge.

A cycle's cost follows its new work, not the length of the log or the
size of the open backlog: it assigns from the unassigned-backlog index,
resumes each reminder stream after its highest sent index and flushes
only the pending-outbox index, all of which the fold maintains in the
snapshot. Reminders are evaluated only for the tickets that changed since
their last evaluation or whose next reminder boundary has passed, found
through a next-due min-heap. The reminder policy is configuration, not
log state, so that schedule lives in the runtime rather than in the
snapshot; a restart rebuilds it by evaluating every open ticket once.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path

from .assignment import (
    POLICIES,
    POLICY_LEAST_OPEN,
    POLICY_MANUAL,
    POLICY_ROUND_ROBIN,
    POLICY_EXPERTISE,
    AssignmentDecision,
    EmptyPoolError,
    ExpertiseProfile,
    TicketAlreadyDoneError,
    UnknownEngineerError,
    expertise_assign,
    least_open_assign,
    round_robin_assign,
)
from .eventlog import (
    KIND_ASSIGNED,
    KIND_CREATED,
    KIND_MESSAGE_DELIVERED,
    KIND_REASSIGNED,
    KIND_REMINDER_SENT,
    KIND_TRANSITIONED,
    BoardSnapshot,
    EventLog,
    fold_event,
    replay,
)
from .notify import (
    DEFAULT_MAX_RETRIES,
    STATE_DELIVERED,
    Channel,
    ChannelBinding,
    Sink,
    announce_assignment,
    announce_state_change,
    attempt_delivery,
    check_endpoint,
    route_reminder,
    sink_for_endpoint,
)
from .reminders import (
    DEFAULT_STUCK_HOURS,
    ThresholdPolicy,
    due_reminders,
    next_reminder_at,
)
from .roster import EngineerRoster, RosterEntry
from .timeutil import iso, parse_date
from .workflow import ReopenMode, Ticket, WorkflowState

DEFAULT_CYCLE_PERIOD_MINUTES = 15


class ConfigError(Exception):
    """Team configuration failed validation; `errors` lists field-level
    messages."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass
class TeamConfig:
    team_id: str
    board_id: str
    roster: EngineerRoster
    binding: ChannelBinding
    policy: str = POLICY_ROUND_ROBIN
    thresholds: ThresholdPolicy | None = None
    expertise: ExpertiseProfile | None = None
    cycle_period_minutes: int = DEFAULT_CYCLE_PERIOD_MINUTES
    max_retries: int = DEFAULT_MAX_RETRIES


_TOP_KEYS = {"team_id", "board_id", "roster", "channels", "review_channel",
             "policy", "thresholds", "expertise", "cycle_period_minutes",
             "max_retries"}
_ROSTER_KEYS = {"id", "joined_at", "separated_at", "leaves"}
_THRESHOLD_KEYS = {"stuck_hours", "sla_warning_fraction",
                   "reminder_period_hours"}
_EXPERTISE_KEYS = {"skills", "labels"}


def _optional_date(raw) -> date | None:
    return parse_date(raw) if raw else None


def _leave_intervals(raw) -> tuple[tuple[date, date], ...]:
    return tuple((parse_date(a), parse_date(b)) for a, b in raw or ())


#: Roster date fields and their parsers; both raise TypeError or
#: ValueError on a bad value.
_ROSTER_DATES = (("joined_at", _optional_date),
                 ("separated_at", _optional_date),
                 ("leaves", _leave_intervals))


def load_team_config(path: str | Path) -> TeamConfig:
    """Load and validate one team's JSON configuration file.

    Unknown keys and dangling references are rejected with field-level
    messages collected into a single ConfigError.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, bad UTF-8, an oversized integer
        raise ConfigError([f"{path}: invalid JSON: {exc}"])
    return parse_team_config(raw)


#: The JSON type of each required structured field, checked before use.
_SHAPES = (("team_id", str, "a string"), ("board_id", str, "a string"),
           ("roster", list, "a list"), ("channels", dict, "an object"))


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _number(value, name: str) -> float:
    """A JSON number as a float. JSON true is a bool, which Python counts
    as an int, and is refused with the strings."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _count_field(raw: dict, key: str, default: int, least: int,
                 errors: list[str]) -> int:
    value = raw.get(key, default)
    if type(value) is not int or value < least:
        errors.append(f"{key}: must be an integer >= {least}, got {value!r}")
    return value


def parse_team_config(raw) -> TeamConfig:
    """Validate a decoded JSON document, collecting field-level messages
    into one ConfigError: any JSON value, whatever it holds at any depth,
    ends in a TeamConfig or a ConfigError."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be an object"])
    for key in raw:
        if key not in _TOP_KEYS:
            errors.append(f"unknown key: {key}")
    for key in ("team_id", "board_id", "roster", "channels",
                "review_channel"):
        if key not in raw:
            errors.append(f"missing key: {key}")
    for key, kind, name in _SHAPES:
        if key in raw and not isinstance(raw[key], kind):
            errors.append(f"{key}: must be {name}")
    if errors:
        raise ConfigError(errors)

    entries: list[RosterEntry] = []
    for i, item in enumerate(raw["roster"]):
        if not isinstance(item, dict):
            errors.append(f"roster[{i}]: must be an object")
            continue
        for key in item:
            if key not in _ROSTER_KEYS:
                errors.append(f"roster[{i}]: unknown key {key}")
        if "id" not in item:
            errors.append(f"roster[{i}]: missing id")
            continue
        if not isinstance(item["id"], str):
            errors.append(f"roster[{i}]: id must be a string")
            continue
        dates = {}
        for key, parse in _ROSTER_DATES:
            try:
                dates[key] = parse(item.get(key))
            except (TypeError, ValueError) as exc:
                errors.append(
                    f"roster[{i}]: bad {key} {item.get(key)!r}: {exc}")
        if len(dates) == len(_ROSTER_DATES):
            entries.append(RosterEntry(engineer_id=item["id"], **dates))
    try:
        roster = EngineerRoster(raw["team_id"], entries)
    except ValueError as exc:
        errors.append(f"roster: {exc}")
        roster = EngineerRoster(raw["team_id"], [])

    endpoints: dict[Channel, str] = {}
    for name, endpoint in raw["channels"].items():
        try:
            channel = Channel(name)
        except ValueError:
            errors.append(f"channels: unknown channel {name}")
            continue
        if not isinstance(endpoint, str):
            errors.append(f"channels: endpoint for {name} must be a string, "
                          f"got {endpoint!r}")
            continue
        try:
            check_endpoint(endpoint)
        except ValueError as exc:
            errors.append(f"channels: bad webhook URL {endpoint!r} for "
                          f"{name}: {exc}")
        endpoints[channel] = endpoint
    binding = None
    try:
        binding = ChannelBinding(
            team_id=raw["team_id"],
            endpoints=endpoints,
            review_channel=Channel(raw["review_channel"]),
        )
    except ValueError as exc:
        errors.append(f"channels: {exc}")

    policy = raw.get("policy", POLICY_ROUND_ROBIN)
    if policy not in POLICIES:
        errors.append(f"policy: unknown policy {policy}")

    thresholds = None
    t = raw.get("thresholds")
    if t is not None and not isinstance(t, dict):
        errors.append("thresholds: must be an object")
    elif t is not None:
        for key in t:
            if key not in _THRESHOLD_KEYS:
                errors.append(f"thresholds: unknown key {key}")
        try:
            stuck_hours = t.get("stuck_hours", {})
            if not isinstance(stuck_hours, dict):
                raise ValueError("stuck_hours must be an object")
            merged = dict(DEFAULT_STUCK_HOURS)
            merged.update({WorkflowState(k): _number(v, f"stuck_hours.{k}")
                           for k, v in stuck_hours.items()})
            thresholds = ThresholdPolicy(
                team_id=raw["team_id"],
                stuck_hours=merged,
                sla_warning_fraction=_number(
                    t.get("sla_warning_fraction", 0.2),
                    "sla_warning_fraction"),
                reminder_period_hours=_number(
                    t.get("reminder_period_hours", 24.0),
                    "reminder_period_hours"),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            errors.append(f"thresholds: {exc}")

    expertise = None
    e = raw.get("expertise")
    if e is not None and not isinstance(e, dict):
        errors.append("expertise: must be an object")
    elif e is not None:
        for key in e:
            if key not in _EXPERTISE_KEYS:
                errors.append(f"expertise: unknown key {key}")
        skills = e.get("skills", {})
        labels = e.get("labels", {})
        if not (isinstance(skills, dict)
                and all(_is_strings(tags) for tags in skills.values())):
            errors.append("expertise: skills must map engineers to lists "
                          "of tags")
            skills = {}
        if not (isinstance(labels, dict)
                and all(isinstance(tag, str) for tag in labels.values())):
            errors.append("expertise: labels must map labels to tags")
            labels = {}
        for eng in skills:
            if eng not in roster:
                errors.append(f"expertise: unknown engineer {eng}")
        expertise = ExpertiseProfile(
            skills={eng: frozenset(tags) for eng, tags in skills.items()},
            label_tags=dict(labels))

    cycle_period = _count_field(raw, "cycle_period_minutes",
                                DEFAULT_CYCLE_PERIOD_MINUTES, 1, errors)
    max_retries = _count_field(raw, "max_retries", DEFAULT_MAX_RETRIES, 0,
                               errors)

    if errors:
        raise ConfigError(errors)
    assert binding is not None
    return TeamConfig(
        team_id=raw["team_id"],
        board_id=raw["board_id"],
        roster=roster,
        binding=binding,
        policy=policy,
        thresholds=thresholds,
        expertise=expertise,
        cycle_period_minutes=cycle_period,
        max_retries=max_retries,
    )


@dataclass
class CycleReport:
    now: datetime
    assigned: int = 0
    unassigned_pending: int = 0
    empty_pool: bool = False
    reminders_sent: int = 0
    messages_delivered: int = 0
    messages_failed: int = 0
    assignments: list[tuple[str, str]] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"cycle at {iso(self.now)}",
            f"  assigned:            {self.assigned}",
            f"  unassigned pending:  {self.unassigned_pending}",
            f"  reminders sent:      {self.reminders_sent}",
            f"  messages delivered:  {self.messages_delivered}",
            f"  messages failed:     {self.messages_failed}",
        ]
        if self.empty_pool:
            lines.append("  WARNING: engineer pool empty, tickets held")
        return "\n".join(lines)


#: Events that change a ticket's reminder triggers or recipients. A sent
#: reminder changes neither: it only moves the ledger forward.
_TICKET_CHANGES = frozenset({KIND_CREATED, KIND_TRANSITIONED, KIND_ASSIGNED,
                             KIND_REASSIGNED})


def poll_new_unassigned(snapshot: BoardSnapshot) -> list[Ticket]:
    """Backlog tickets with no assignee, ordered by created_at then id."""
    tickets = [snapshot.tickets[tid] for tid in snapshot.unassigned_backlog]
    return sorted(tickets, key=lambda t: (t.created_at, t.id))


class BoardRuntime:
    """Single logical owner of one board's log, snapshot and sinks."""

    def __init__(self, config: TeamConfig, log: EventLog | None = None,
                 sinks: dict[Channel, Sink] | None = None,
                 manual_plan: dict[str, tuple[str, datetime]] | None = None):
        self.config = config
        self.log = log if log is not None else EventLog()
        self.snapshot = replay(self.log.events, config.board_id)
        if sinks is None:
            sinks = {channel: sink_for_endpoint(endpoint)
                     for channel, endpoint in config.binding.endpoints.items()}
        self.sinks = sinks
        self.manual_plan = manual_plan or {}
        # The reminder schedule. An open ticket whose reminders may be due
        # is either touched (changed since its last visit) or has a live
        # entry in the min-heap of (next boundary, ticket id); `_next_due`
        # holds each live entry's instant, and an entry that disagrees
        # with it is stale. Derived from the log and the policy alone, so
        # a restart rebuilds it by touching every open ticket.
        self._touched: set[str] = set(self.snapshot.open_tickets)
        self._due_heap: list[tuple[datetime, str]] = []
        self._next_due: dict[str, datetime] = {}

    @property
    def sinks(self) -> dict[Channel, Sink]:
        return self._sinks

    @sinks.setter
    def sinks(self, sinks: dict[Channel, Sink]) -> None:
        self._sinks = sinks
        # Sinks that hold resources for one flush, each once; a board of
        # memory or webhook sinks has none.
        self._closers = list({id(sink): sink.close for sink in sinks.values()
                              if hasattr(sink, "close")}.values())

    # -- event plumbing ----------------------------------------------------

    def _commit(self, kind: str, ts: datetime, payload: dict) -> dict:
        event = {
            "seq": self.log.watermark + 1,
            "ts": iso(ts),
            "board": self.config.board_id,
            "kind": kind,
        }
        event.update(payload)
        # Fold first: a rejected event raises before it changes the
        # snapshot or reaches the log.
        fold_event(self.snapshot, event)
        try:
            self.log.append([event])
        except BaseException:
            # Live state must not run ahead of the log.
            self.snapshot = replay(self.log.events, self.config.board_id)
            raise
        if kind in _TICKET_CHANGES:
            self._touched.add(payload["ticket"])
        return event

    def _make_msg_id(self):
        # Allocates ids ahead of the fold that will bump msg_counter.
        state = {"next": self.snapshot.msg_counter + 1}

        def make_id() -> str:
            msg_id = f"m{state['next']:06d}"
            state["next"] += 1
            return msg_id

        return make_id

    # -- external board writes --------------------------------------------

    def inject_ticket(self, ticket_id: str, reporter: str, at: datetime,
                      priority: str = "Medium",
                      sla_deadline: datetime | None = None,
                      labels: tuple[str, ...] = ()) -> Ticket:
        payload = {
            "ticket": ticket_id,
            "reporter": reporter,
            "priority": priority,
        }
        if sla_deadline is not None:
            payload["sla_deadline"] = iso(sla_deadline)
        if labels:
            payload["labels"] = list(labels)
        self._commit(KIND_CREATED, at, payload)
        return self.snapshot.tickets[ticket_id]

    def apply_external_transition(self, ticket_id: str, to: WorkflowState,
                                  at: datetime, actor: str,
                                  announce: bool = True) -> Ticket:
        """Record a state change made on the board (by an engineer or
        reporter), announcing it on the review channel."""
        ticket = self.snapshot.tickets[ticket_id]
        payload: dict = {"ticket": ticket_id, "from": ticket.state.value,
                         "to": to.value, "actor": actor}
        if announce:
            msg = announce_state_change(ticket_id, ticket.state, to, at,
                                        self.config.binding,
                                        self._make_msg_id())
            payload["messages"] = [msg.wire()]
        self._commit(KIND_TRANSITIONED, at, payload)
        return self.snapshot.tickets[ticket_id]

    def reopen_ticket(self, ticket_id: str, mode: ReopenMode, at: datetime,
                      actor: str = "reopen") -> Ticket:
        ticket = self.snapshot.tickets[ticket_id]
        to = (WorkflowState.BACKLOG if mode is ReopenMode.TO_BACKLOG
              else WorkflowState.WORK_IN_PROGRESS)
        msg = announce_state_change(ticket_id, ticket.state, to, at,
                                    self.config.binding, self._make_msg_id())
        self._commit(KIND_TRANSITIONED, at, {
            "ticket": ticket_id,
            "from": ticket.state.value,
            "to": to.value,
            "actor": actor,
            "reopen_mode": mode.value,
            "messages": [msg.wire()],
        })
        return self.snapshot.tickets[ticket_id]

    def reassign_ticket(self, ticket_id: str, to: str,
                        at: datetime) -> AssignmentDecision:
        ticket = self.snapshot.tickets[ticket_id]
        if ticket.state is WorkflowState.DONE:
            raise TicketAlreadyDoneError(ticket_id)
        if to not in self.config.roster:
            raise UnknownEngineerError(to)
        decision = AssignmentDecision(
            ticket_id=ticket_id, engineer_id=to, policy=POLICY_MANUAL,
            decided_at=at, cursor_after=None)
        msg = announce_assignment(decision, self.config.binding,
                                  self._make_msg_id())
        self._commit(KIND_REASSIGNED, at, {
            "ticket": ticket_id,
            "engineer": to,
            "from_engineer": ticket.assignee,
            "messages": [msg.wire()],
        })
        return decision

    # -- the periodic cycle ------------------------------------------------

    def _decide(self, ticket: Ticket, now: datetime) -> AssignmentDecision | None:
        """Pick an engineer under the configured policy; None defers the
        ticket (manual plan not due yet)."""
        cfg = self.config
        position = self.snapshot.cursor_position
        if cfg.policy == POLICY_ROUND_ROBIN:
            return round_robin_assign(cfg.roster, position, ticket, now)
        if cfg.policy == POLICY_EXPERTISE:
            profile = cfg.expertise or ExpertiseProfile({}, {})
            return expertise_assign(profile, cfg.roster, ticket, now,
                                    self.snapshot.assign_counts, position)
        if cfg.policy == POLICY_LEAST_OPEN:
            open_counts: dict[str, int] = {}
            for tid in self.snapshot.open_tickets:
                assignee = self.snapshot.tickets[tid].assignee
                if assignee is not None:
                    open_counts[assignee] = open_counts.get(assignee, 0) + 1
            return least_open_assign(open_counts, cfg.roster, ticket, now)
        if cfg.policy == POLICY_MANUAL:
            plan = self.manual_plan.get(ticket.id)
            if plan is None or plan[1] > now:
                return None
            return AssignmentDecision(
                ticket_id=ticket.id, engineer_id=plan[0],
                policy=POLICY_MANUAL, decided_at=now, cursor_after=None)
        raise ValueError(f"unknown policy: {cfg.policy}")

    def run_cycle(self, now: datetime) -> CycleReport:
        """One bot pass: assign new unassigned tickets, evaluate due
        reminders (skipping tickets assigned this very cycle), then flush
        the outbox through the sinks. Sink failures never abort the cycle.
        """
        report = CycleReport(now=now)
        assigned_now: set[str] = set()

        for ticket in poll_new_unassigned(self.snapshot):
            if report.empty_pool:
                report.unassigned_pending += 1
                continue
            try:
                decision = self._decide(ticket, now)
            except EmptyPoolError:
                report.empty_pool = True
                report.unassigned_pending += 1
                continue
            if decision is None:
                report.unassigned_pending += 1
                continue
            msg = announce_assignment(decision, self.config.binding,
                                      self._make_msg_id())
            self._commit(KIND_ASSIGNED, now, {
                "ticket": ticket.id,
                "engineer": decision.engineer_id,
                "policy": decision.policy,
                "cursor_after": decision.cursor_after,
                "messages": [msg.wire()],
            })
            report.assigned += 1
            report.assignments.append((ticket.id, decision.engineer_id))
            assigned_now.add(ticket.id)

        if self.config.thresholds is not None:
            self._remind(now, assigned_now, report)
        else:
            self._touched.clear()

        self._flush_outbox(now, report)
        return report

    def _remind(self, now: datetime, assigned_now: set[str],
                report: CycleReport) -> None:
        """Evaluate reminders for the tickets that may have one due: those
        touched since their last visit and those whose next boundary lies
        strictly before `now`. Tickets assigned this cycle are skipped and
        stay touched for the next one."""
        policy = self.config.thresholds
        heap, next_due = self._due_heap, self._next_due
        visit = self._touched
        while heap and heap[0][0] < now:
            instant, tid = heapq.heappop(heap)
            if next_due.get(tid) == instant:
                del next_due[tid]
                visit.add(tid)
        self._touched = set(assigned_now)
        visit -= assigned_now
        open_tickets, tickets = self.snapshot.open_tickets, []
        for tid in sorted(visit):
            if tid in open_tickets:
                tickets.append(self.snapshot.tickets[tid])
            else:
                next_due.pop(tid, None)
        for reminder in due_reminders(tickets, now, policy,
                                      self.snapshot.reminder_ledger):
            messages = route_reminder(reminder, self.config.binding,
                                      self._make_msg_id())
            self._commit(KIND_REMINDER_SENT, now, {
                "ticket": reminder.ticket_id,
                "reminder_kind": reminder.kind.value,
                "index": reminder.escalation_index,
                "recipients": list(reminder.recipients),
                "messages": [m.wire() for m in messages],
            })
            report.reminders_sent += 1
        for ticket in tickets:
            instant = next_reminder_at(ticket, now, policy)
            if next_due.get(ticket.id) != instant:
                next_due[ticket.id] = instant
                heapq.heappush(heap, (instant, ticket.id))

    def _flush_outbox(self, now: datetime, report: CycleReport) -> None:
        pending = self.snapshot.pending_outbox
        if not pending:
            return
        try:
            for msg_id in list(pending):
                msg = self.snapshot.outbox[msg_id]
                state, retries, terminal = attempt_delivery(
                    msg, self._sinks.get(msg.channel),
                    self.config.max_retries)
                self._commit(KIND_MESSAGE_DELIVERED, now, {
                    "msg_id": msg_id,
                    "state": state,
                    "retries": retries,
                    "terminal": terminal,
                })
                if state == STATE_DELIVERED:
                    report.messages_delivered += 1
                else:
                    report.messages_failed += 1
        finally:
            for close in self._closers:
                close()
