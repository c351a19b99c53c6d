"""The bot core: team configuration, the board runtime and the periodic
scan-assign-remind cycle.

One BoardRuntime owns one board: its snapshot, event log, cursor, reminder
ledger and outbox. A person assigns only through `reassign_ticket`, and
under the Manual policy the cycle assigns nothing. Every record is folded
into the live snapshot before it reaches the log. An outside command's
fields come from a caller, so its one record takes the full fold
(`fold_event`) and is appended at once. A cycle builds its records only
from state the runtime holds and applies each (`apply_event`) as it
makes it, so the fold's shared checks hold by construction: the seq
after the watermark, the board's own id, a `ts` that `iso` rendered, and
messages from the templates, on `Channel` values, with the binding's
string team and with ids the allocator draws in order and refuses past
18 digits. Each record still meets its handler's checks against the
board. The cycle appends its assignment and reminder records in one call
before any sink sees a message. It then hands every pending message to
its sink and closes the sinks, where the file sink writes its queued
lines, and only then settles each message and appends its records in a
second call. Each append happens also when its phase raises, so the log
holds every record folded before the error, a message id a sink has seen
is always logged and a logged delivery's line is on disk first. The fold
is all or nothing, so a rejected record leaves both untouched. A failed
append leaves the file as it was and rebuilds the snapshot, and the
reminder schedule with it, from the log: live state and replay never
diverge. An assignment or transition record takes its timestamp from its
announcement, rendered once, and every instant the runtime rendered is
read back from the codec's memo (`timeutil`), by the fold or by the
cycle for its own records, so a live board does not parse its own
timestamps again.

A cycle's cost follows its new work, not the length of the log or the
size of the open backlog: it assigns from the unassigned-backlog index,
and polls nothing when that is empty, resumes each reminder stream after
its last sent index and flushes the outbox, which holds only pending
messages; the fold maintains all three in the snapshot. Reminders are
evaluated only for the tickets that changed since their last evaluation
or whose next reminder boundary has passed, found through a min-heap of
boundaries, with one stream pass per visited ticket giving both its due
reminders and its next boundary. Each visited open ticket keeps one
trigger entry: its triggers, which depend only on the ticket and the
policy, so a visit to an unchanged ticket pays only for what depends on
the instant, and its next boundary, which tells a live heap entry from a
stale one. The cycle builds each reminder and delivery record in place
and applies it directly. The reminder policy is configuration, not log
state, so that schedule lives in the runtime; a restart rebuilds it by
evaluating every open ticket once. Everything else the runtime reads
comes from the snapshot, so a runtime rebuilt from the log at any point
writes the same records: that includes the reminder skip of a ticket
whose `Assigned` announcement has not been attempted yet.
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
    MSG_DIGITS,
    BoardSnapshot,
    EventLog,
    apply_event,
    fold_event,
    replay,
)
from .notify import (
    DEFAULT_MAX_RETRIES,
    STATE_DELIVERED,
    Channel,
    ChannelBinding,
    Sink,
    SinkUnreachable,
    announce_assignment,
    announce_state_change,
    check_endpoint,
    hand_over,
    route_reminder,
    settle,
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
from .timeutil import iso, parse_date, parse_ts
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
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except IsADirectoryError:
        raise ConfigError([f"config file is a directory: {path}"])
    except OSError as exc:
        raise ConfigError([f"config file cannot be read ({exc.strerror}): "
                           f"{path}"])
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
        if not endpoint:
            # A file sink would write into the working directory.
            errors.append(f"channels: endpoint for {name} is empty")
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
        self._reschedule()

    def _reschedule(self) -> None:
        """Start the reminder schedule afresh from the snapshot.

        An open ticket whose reminders may be due is either touched
        (changed since its last visit) or has a live entry in the min-heap
        of (next boundary, ticket id): one whose instant is the last slot
        of the ticket's `due_reminders` trigger entry in `_triggers`. A
        pop sets that slot to None, so any other copy is stale. Derived
        from the log and the policy alone, so a restart rebuilds it by
        touching every open ticket.
        """
        self._touched: set[str] = set(self.snapshot.open_tickets)
        self._due_heap: list[tuple[datetime, str]] = []
        self._triggers: dict[str, list] = {}

    # -- event plumbing ----------------------------------------------------

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

    def _commit(self, kind: str, ts: str, payload: dict) -> dict:
        """Fold an external command's record of `kind` at the rendered
        instant `ts`, one that changes its ticket, into the live snapshot
        and append it at once. Its fields come from a caller, so the full
        fold checks them: a rejected record raises before it changes
        anything."""
        event = {
            "seq": self.snapshot.watermark + 1,
            "ts": ts,
            "board": self.config.board_id,
            "kind": kind,
        }
        event.update(payload)
        fold_event(self.snapshot, event)
        self._touched.add(payload["ticket"])
        self._append([event])
        return event

    def _make_msg_id(self):
        """The allocator of the ids after the snapshot's `msg_counter`, in
        order. It runs ahead of the folds that bump msg_counter past each
        id, so each announcement must be folded before the next id is
        drawn. An id longer than the fold accepts raises OverflowError
        when drawn, before any record holds it."""
        next_id = map("m{:06d}".format,
                      range(self.snapshot.msg_counter + 1,
                            10 ** MSG_DIGITS)).__next__

        def make_id() -> str:
            try:
                return next_id()
            except StopIteration:
                raise OverflowError(f"message ids past m{'9' * MSG_DIGITS} "
                                    f"cannot be logged") from None

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
        self._commit(KIND_CREATED, iso(at), payload)
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
        self._commit(KIND_TRANSITIONED, wire["ts"], {
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
        self._commit(kind, wire["ts"], {"ticket": ticket_id,
                                        "engineer": to, **fields,
                                        "messages": [wire]})
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
        reminders (skipping tickets assigned since the last flush), then flush
        the outbox through the sinks. Sink failures never abort the cycle.

        Each assignment and reminder record is applied to the snapshot as
        it is made, without the shared checks of the full fold: the cycle
        builds it from state the runtime holds, so they hold by
        construction. They reach the log, and its file, in one append
        before any sink sees a message, so a message id a sink has seen is
        never given to another message. The delivery records are built
        after the sinks close, when every file sink has written its
        lines, and follow in a second append. Each append happens also
        when its phase raises: the log then holds every record folded
        before the error.
        """
        report = CycleReport(now=now)
        announced: list[dict] = []
        try:
            self._assign(now, report, announced)
            if self.config.thresholds is not None:
                self._remind(now, report, announced)
            else:
                self._touched.clear()
        finally:
            if announced:
                self._append(announced)
        self._flush_outbox(now, report)
        return report

    def _assign(self, now: datetime, report: CycleReport,
                records: list[dict]) -> None:
        """Assign the unassigned backlog under the policy; under Manual a
        person assigns (`reassign_ticket`) and all of it stays pending.
        An empty backlog polls nothing."""
        if self.config.policy == POLICY_MANUAL:
            report.unassigned_pending = len(self.snapshot.unassigned_backlog)
            return
        if not self.snapshot.unassigned_backlog:
            return
        snapshot, board = self.snapshot, self.config.board_id
        polled = poll_new_unassigned(snapshot)
        make_id = self._make_msg_id()
        for ticket in polled:
            try:
                decision = self._decide(ticket, now)
            except EmptyPoolError:
                # The pool depends on `now` alone: empty for every ticket.
                report.empty_pool = True
                break
            wire = announce_assignment(decision, self.config.binding,
                                       make_id)
            event = {"seq": snapshot.watermark + 1, "ts": wire["ts"],
                     "board": board, "kind": KIND_ASSIGNED,
                     "ticket": ticket.id, "engineer": decision.engineer_id,
                     "policy": decision.policy,
                     "cursor_after": decision.cursor_after,
                     "messages": [wire]}
            # Its one message holds the id after the snapshot's last.
            apply_event(snapshot, event, parse_ts(wire["ts"]),
                        snapshot.msg_counter + 1)
            self._touched.add(ticket.id)
            records.append(event)
            report.assigned += 1
            report.assignments.append((ticket.id, decision.engineer_id))
        report.unassigned_pending = len(polled) - report.assigned

    def _remind(self, now: datetime, report: CycleReport,
                records: list[dict]) -> None:
        """Evaluate reminders for the tickets that may have one due: those
        touched since their last visit and those whose next boundary lies
        strictly before `now`. Tickets whose `Assigned` announcement has
        no delivery attempt in the log yet (the snapshot's
        `fresh_assignments`) are skipped and stay touched for the next
        cycle."""
        policy = self.config.thresholds
        heap, triggers = self._due_heap, self._triggers
        visit = self._touched
        while heap and heap[0][0] < now:
            instant, tid = heapq.heappop(heap)
            entry = triggers.get(tid)
            if entry is not None and entry[6] == instant:
                entry[6] = None  # a second copy of this entry is stale
                visit.add(tid)
        fresh = set(self.snapshot.fresh_assignments.values())
        visit -= fresh
        self._touched = fresh
        open_tickets, tickets = self.snapshot.open_tickets, []
        for tid in sorted(visit):
            if tid in open_tickets:
                tickets.append(self.snapshot.tickets[tid])
            else:
                triggers.pop(tid, None)
        # One pass per ticket gives its due reminders and, in its entry,
        # its next boundary; committing a reminder changes neither.
        reminders = due_reminders(tickets, now, policy,
                                  self.snapshot.reminder_ledger,
                                  triggers=triggers)
        if reminders:
            snapshot, ts, board = self.snapshot, iso(now), self.config.board_id
            binding, make_id = self.config.binding, self._make_msg_id()
            instant = parse_ts(ts)
            # A sent reminder changes no ticket: not `_touched`.
            for reminder in reminders:
                wires = route_reminder(reminder, binding, make_id)
                event = {"seq": snapshot.watermark + 1, "ts": ts,
                         "board": board, "kind": KIND_REMINDER_SENT,
                         "ticket": reminder.ticket_id,
                         "reminder_kind": REMINDER_KIND_VALUE[reminder.kind],
                         "index": reminder.escalation_index,
                         "recipients": list(reminder.recipients),
                         "messages": wires}
                apply_event(snapshot, event, instant,
                            snapshot.msg_counter + len(wires))
                records.append(event)
            report.reminders_sent += len(reminders)
        # Each visited ticket's earlier heap entry is stale: its boundary
        # was handed out, or the ticket changed and got a new entry.
        for ticket in tickets:
            heapq.heappush(heap, (triggers[ticket.id][6], ticket.id))

    def _flush_outbox(self, now: datetime, report: CycleReport) -> None:
        """Hand each pending message to its sink once, close the sinks,
        then settle each message and append its record, also when a sink
        raises.

        The hand-over takes each message's line out of `log.lines` and
        keeps only the message's outcome. The sinks are
        then closed, each once, in the order they first appear; each id a
        `close` returns (`FileSink` could not write its line) whose
        message a sink took becomes a transient failure. Only then does
        `settle` turn each outcome into a record, applied in outbox order,
        so a logged delivery's line is on disk first. A close that raises
        settles nothing: every message stays pending.
        """
        snapshot, sinks, lines = self.snapshot, self.sinks, self.log.lines
        if not snapshot.outbox:
            return
        outcomes: dict[str, type[Exception] | None] = {}
        try:
            # A Channel is a str Enum: the wire's value finds its sink.
            for msg_id, wire in snapshot.outbox.items():
                outcomes[msg_id] = hand_over(wire, lines.pop(msg_id, None),
                                             sinks.get(wire["channel"]))
        finally:
            # Sinks that hold resources for one flush, each once.
            for sink in dict.fromkeys(sinks.values()):
                if hasattr(sink, "close"):
                    for msg_id in sink.close() or ():
                        if msg_id in outcomes and outcomes[msg_id] is None:
                            outcomes[msg_id] = SinkUnreachable
            ts, board = iso(now), self.config.board_id
            instant, max_retries = parse_ts(ts), self.config.max_retries
            records: list[dict] = []
            try:
                for msg_id, outcome in outcomes.items():
                    state, retries, terminal = settle(
                        outcome, snapshot.retries.get(msg_id, 0), max_retries)
                    # A delivery record changes no ticket: not `_touched`.
                    event = {"seq": snapshot.watermark + 1, "ts": ts,
                             "board": board, "kind": KIND_MESSAGE_DELIVERED,
                             "msg_id": msg_id, "state": state,
                             "retries": retries, "terminal": terminal}
                    apply_event(snapshot, event, instant,
                                snapshot.msg_counter)
                    records.append(event)
                    if state == STATE_DELIVERED:
                        report.messages_delivered += 1
                    else:
                        report.messages_failed += 1
            finally:
                if records:
                    self._append(records)
