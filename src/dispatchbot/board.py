"""The bot core: team configuration, the board runtime and the periodic
scan-assign-remind cycle.

One BoardRuntime owns one board: its snapshot, event log, cursor, reminder
ledger and outbox. A person assigns only through `reassign_ticket`, and
under the Manual policy the cycle assigns nothing. Every record is folded
into the live snapshot before it reaches the log. An outside command
appends its one record at once; a cycle folds each record as it makes it
and appends its assignment and reminder records in one call before any
sink sees a message, then its delivery records in a second, each also
when its phase raises, so the log holds every record folded before the
error and a message id a sink has seen is always logged. The fold is all
or nothing, so a rejected record leaves both untouched, and a failed
append rebuilds the snapshot, and the reminder schedule with it, from the
log: live state and replay never diverge.

A cycle's cost follows its new work, not the length of the log or the
size of the open backlog: it assigns from the unassigned-backlog index,
resumes each reminder stream after its last sent index and flushes
the outbox, which holds only pending messages; the fold maintains all
three in the snapshot. Reminders are evaluated only for the tickets that
changed since their last evaluation or whose next reminder boundary has
passed, found through a next-due min-heap, with one stream pass per
visited ticket giving both its due reminders and its next boundary. The
schedule also keeps each visited open ticket's triggers, which depend
only on the ticket and the policy, so a visit to an unchanged ticket
pays only for what depends on the instant. The cycle builds each
reminder and delivery record in place and folds it directly. The
reminder policy is configuration, not log state, so that schedule lives
in the runtime rather than in the snapshot; a restart rebuilds it by
evaluating every open ticket once.
"""

from __future__ import annotations

import heapq
import itertools
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
    MAX_HOURS,
    REMINDER_KIND_VALUE,
    ThresholdPolicy,
    due_reminders,
)
from .roster import EngineerRoster, RosterEntry
from .timeutil import iso, parse_date
from .workflow import (REOPEN_STATE, STATE_VALUE, ReopenMode, Ticket,
                       WorkflowState)

DEFAULT_CYCLE_PERIOD_MINUTES = 15
#: 100 years, as for reminder hours; `run --loop` sleeps this long.
MAX_CYCLE_PERIOD_MINUTES = int(MAX_HOURS * 60)


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
    if path.is_dir():
        raise ConfigError([f"config file is a directory: {path}"])
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
                 errors: list[str], most: int | None = None) -> int:
    value = raw.get(key, default)
    if type(value) is not int or value < least:
        errors.append(f"{key}: must be an integer >= {least}, got {value!r}")
    elif most is not None and value > most:
        errors.append(f"{key}: must be an integer <= {most}, got {value!r}")
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
                                DEFAULT_CYCLE_PERIOD_MINUTES, 1, errors,
                                MAX_CYCLE_PERIOD_MINUTES)
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
                 sinks: dict[Channel, Sink] | None = None):
        self.config = config
        self.log = log if log is not None else EventLog()
        self.snapshot = replay(self.log.events, config.board_id)
        if sinks is None:
            sinks = {channel: sink_for_endpoint(endpoint)
                     for channel, endpoint in config.binding.endpoints.items()}
        self.sinks = sinks
        #: Tickets assigned, by a command or a cycle, since the last cycle:
        #: the next cycle's reminders skip them. Not rebuilt from the log.
        self._assigned: set[str] = set()
        self._reschedule()
        #: The running cycle's message-id allocator; see `_cycle_ids`.
        self._ids = None

    def _reschedule(self) -> None:
        """Start the reminder schedule afresh from the snapshot.

        An open ticket whose reminders may be due is either touched
        (changed since its last visit) or has a live entry in the min-heap
        of (next boundary, ticket id); `_next_due` holds each live entry's
        instant, and an entry that disagrees with it is stale. `_triggers`
        holds each visited open ticket's `due_reminders` trigger entry.
        Derived from the log and the policy alone, so a restart rebuilds
        it by touching every open ticket.
        """
        self._touched: set[str] = set(self.snapshot.open_tickets)
        self._due_heap: list[tuple[datetime, str]] = []
        self._next_due: dict[str, datetime] = {}
        self._triggers: dict[str, list] = {}

    # -- event plumbing ----------------------------------------------------

    def _fold(self, kind: str, ts: str, payload: dict) -> dict:
        """Fold the record of `kind` at `ts` into the live snapshot and
        return it. A rejected record raises before it changes anything."""
        event = {
            "seq": self.snapshot.watermark + 1,
            "ts": ts,
            "board": self.config.board_id,
            "kind": kind,
        }
        event.update(payload)
        fold_event(self.snapshot, event)
        if kind in _TICKET_CHANGES:
            self._touched.add(payload["ticket"])
            if kind == KIND_ASSIGNED:
                self._assigned.add(payload["ticket"])
        return event

    def _append(self, events: list[dict]) -> None:
        """Append records already folded into the snapshot to the log."""
        try:
            self.log.append(events)
        except BaseException:
            # Live state must not run ahead of the log: rebuild it, and the
            # reminder schedule with it, as a restart would.
            self.snapshot = replay(self.log.events, self.config.board_id)
            self._reschedule()
            raise

    def _commit(self, kind: str, ts: datetime, payload: dict) -> dict:
        """Fold an external command's record and append it at once."""
        event = self._fold(kind, iso(ts), payload)
        self._append([event])
        return event

    def _make_msg_id(self):
        # Allocates ids ahead of the folds that bump msg_counter past each.
        return map("m{:06d}".format,
                   itertools.count(self.snapshot.msg_counter + 1)).__next__

    def _cycle_ids(self):
        """The running cycle's message-id allocator, made on first use.
        One serves every announcement of the cycle, as each fold moves
        msg_counter up to the id it just used."""
        if self._ids is None:
            self._ids = self._make_msg_id()
        return self._ids

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
                                  at: datetime, actor: str) -> Ticket:
        """Record a state change made on the board (by an engineer or
        reporter), announcing it on the review channel."""
        return self._transition(ticket_id, to, at, {"actor": actor})

    def reopen_ticket(self, ticket_id: str, mode: ReopenMode, at: datetime,
                      actor: str = "reopen") -> Ticket:
        return self._transition(ticket_id, REOPEN_STATE[mode], at,
                                {"actor": actor, "reopen_mode": mode.value})

    def _transition(self, ticket_id: str, to: WorkflowState, at: datetime,
                    fields: dict) -> Ticket:
        ticket = self.snapshot.tickets[ticket_id]
        wire = announce_state_change(ticket_id, ticket.state, to, at,
                                     self.config.binding, self._make_msg_id())
        self._commit(KIND_TRANSITIONED, at, {
            "ticket": ticket_id,
            "from": STATE_VALUE[ticket.state],
            "to": STATE_VALUE[to],
            "messages": [wire],
            **fields,
        })
        return self.snapshot.tickets[ticket_id]

    def reassign_ticket(self, ticket_id: str, to: str,
                        at: datetime) -> AssignmentDecision:
        """Hand `ticket_id` to `to`, the one way a person assigns: Assigned
        under Manual when it has no assignee, else Reassigned."""
        ticket = self.snapshot.tickets[ticket_id]
        if ticket.state is WorkflowState.DONE:
            raise TicketAlreadyDoneError(ticket_id)
        if to not in self.config.roster:
            raise UnknownEngineerError(to)
        decision = AssignmentDecision(
            ticket_id=ticket_id, engineer_id=to, policy=POLICY_MANUAL,
            decided_at=at, cursor_after=None)
        wire = announce_assignment(decision, self.config.binding,
                                   self._make_msg_id())
        if ticket.assignee is None:
            kind, fields = KIND_ASSIGNED, {"policy": POLICY_MANUAL,
                                           "cursor_after": None}
        else:
            kind, fields = KIND_REASSIGNED, {"from_engineer": ticket.assignee}
        self._commit(kind, at, {"ticket": ticket_id, "engineer": to,
                                **fields, "messages": [wire]})
        return decision

    # -- the periodic cycle ------------------------------------------------

    def _decide(self, ticket: Ticket, now: datetime) -> AssignmentDecision:
        """Pick an engineer under the configured automatic policy."""
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
        raise ValueError(f"unknown policy: {cfg.policy}")

    def run_cycle(self, now: datetime) -> CycleReport:
        """One bot pass: assign new unassigned tickets, evaluate due
        reminders (skipping tickets assigned this very cycle), then flush
        the outbox through the sinks, and flush the log. Sink failures
        never abort the cycle.

        Each record is folded into the snapshot as it is made. The
        assignment and reminder records reach the log, and its file, in
        one append before any sink sees a message, so a message id a sink
        has seen is never given to another message. The delivery records
        follow in a second append. Each append happens also when its
        phase raises: the log then holds every record folded before the
        error.
        """
        report = CycleReport(now=now)
        announced: list[dict] = []
        self._ids = None
        try:
            self._assign(now, report, announced)
            if self.config.thresholds is not None:
                self._remind(now, report, announced)
            else:
                self._touched.clear()
            self._assigned.clear()
        finally:
            if announced:
                self._append(announced)
                self.log.flush()
        self._flush_outbox(now, report)
        self.log.flush()
        return report

    def _assign(self, now: datetime, report: CycleReport,
                records: list[dict]) -> None:
        """Assign the unassigned backlog under the policy; under Manual a
        person assigns (`reassign_ticket`) and all of it stays pending."""
        if self.config.policy == POLICY_MANUAL:
            report.unassigned_pending = len(self.snapshot.unassigned_backlog)
            return
        polled = poll_new_unassigned(self.snapshot)
        for ticket in polled:
            try:
                decision = self._decide(ticket, now)
            except EmptyPoolError:
                # The pool depends on `now` alone: empty for every ticket.
                report.empty_pool = True
                break
            wire = announce_assignment(decision, self.config.binding,
                                       self._cycle_ids())
            records.append(self._fold(KIND_ASSIGNED, iso(now), {
                "ticket": ticket.id,
                "engineer": decision.engineer_id,
                "policy": decision.policy,
                "cursor_after": decision.cursor_after,
                "messages": [wire],
            }))
            report.assigned += 1
            report.assignments.append((ticket.id, decision.engineer_id))
        report.unassigned_pending = len(polled) - report.assigned

    def _remind(self, now: datetime, report: CycleReport,
                records: list[dict]) -> None:
        """Evaluate reminders for the tickets that may have one due: those
        touched since their last visit and those whose next boundary lies
        strictly before `now`. Tickets assigned since the last cycle are
        skipped and stay touched for the next one."""
        policy = self.config.thresholds
        heap, next_due = self._due_heap, self._next_due
        visit = self._touched
        while heap and heap[0][0] < now:
            instant, tid = heapq.heappop(heap)
            if next_due.get(tid) == instant:
                del next_due[tid]
                visit.add(tid)
        self._touched = set(self._assigned)
        visit -= self._assigned
        open_tickets, tickets = self.snapshot.open_tickets, []
        for tid in sorted(visit):
            if tid in open_tickets:
                tickets.append(self.snapshot.tickets[tid])
            else:
                next_due.pop(tid, None)
                self._triggers.pop(tid, None)
        # One pass per ticket gives both its due reminders and its next
        # boundary; committing a reminder changes neither.
        boundaries: dict[str, datetime] = {}
        reminders = due_reminders(tickets, now, policy,
                                  self.snapshot.reminder_ledger, boundaries,
                                  self._triggers)
        if reminders:
            snapshot, ts, board = self.snapshot, iso(now), self.config.board_id
            binding, make_id = self.config.binding, self._cycle_ids()
            # A sent reminder changes no ticket: no `_fold` bookkeeping.
            for reminder in reminders:
                event = {"seq": snapshot.watermark + 1, "ts": ts,
                         "board": board, "kind": KIND_REMINDER_SENT,
                         "ticket": reminder.ticket_id,
                         "reminder_kind": REMINDER_KIND_VALUE[reminder.kind],
                         "index": reminder.escalation_index,
                         "recipients": list(reminder.recipients),
                         "messages": route_reminder(reminder, binding,
                                                    make_id)}
                fold_event(snapshot, event)
                records.append(event)
            report.reminders_sent += len(reminders)
        for tid, instant in boundaries.items():
            if next_due.get(tid) != instant:
                next_due[tid] = instant
                heapq.heappush(heap, (instant, tid))

    def _flush_outbox(self, now: datetime, report: CycleReport) -> None:
        """Attempt each pending message once, then append the delivery
        records in one call, also when a sink raises."""
        snapshot = self.snapshot
        outbox = snapshot.outbox
        if not outbox:
            return
        ts, board = iso(now), self.config.board_id
        records: list[dict] = []
        try:
            # Each settling record removes its message from the outbox.
            # A Channel is a str Enum: the wire's value finds its sink.
            for msg_id, wire in list(outbox.items()):
                state, retries, terminal = attempt_delivery(
                    wire, snapshot.retries.get(msg_id, 0),
                    self.sinks.get(wire["channel"]),
                    self.config.max_retries)
                # Delivery records change no ticket: no `_fold` bookkeeping.
                event = {"seq": snapshot.watermark + 1, "ts": ts,
                         "board": board, "kind": KIND_MESSAGE_DELIVERED,
                         "msg_id": msg_id, "state": state,
                         "retries": retries, "terminal": terminal}
                fold_event(snapshot, event)
                records.append(event)
                if state == STATE_DELIVERED:
                    report.messages_delivered += 1
                else:
                    report.messages_failed += 1
        finally:
            try:
                # Sinks that hold resources for one flush, each once.
                for sink in set(self.sinks.values()):
                    if hasattr(sink, "close"):
                        sink.close()
            finally:
                # After the close: a logged delivery's line is written.
                if records:
                    self._append(records)
