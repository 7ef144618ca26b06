"""Privacy-boundary auditor and communication accounting over transcripts.

Violations are data, not exceptions: the auditor classifies each suspicious
record into exactly one violation kind (first matching rule wins):

  raw-feature-leak       anything leaving a data platform that is not a
                         rep-width LocalRepUpload (or ids shaped wrongly)
  local-rep-misroute     a local rep delivered anywhere but the server
  unperturbed-unified    unified rep reaching the task platform without the
                         required LDP perturbation (live transcripts only;
                         exported records do not carry the send-site flag)
  unified-to-sensitive   a rep-width payload reaching a sensitive platform
  sensitive-label-leak   a sensitive platform emitting anything other than
                         its two gradient returns
  illegal-edge           any other (kind, sender role, receiver role) outside
                         the protocol table

The classifier is table-driven: the kind strings, the roles and the edge
table keyed by kind string (records carry ``kind`` as a plain ``str``) are
resolved once at import, so a record costs a few dict lookups and string
comparisons, well under a microsecond, and no enum lookup.

``audit_transcript``, what a live run and fvbench's round workloads call
round after round, classifies each record signature (sender, receiver, kind,
shape, LDP flag, phase: every field a rule reads) once per policy: the
policy keeps each signature's verdict in a table as long as it lives, so a
later record with that signature costs one dict lookup. The policy is frozen,
so the table cannot outlive the fields it was filled under.

``audit_file``, what ``fairvfl audit`` runs, streams an exported transcript
in ``Transcript.read``'s chunks of whole lines, matched by the same canonical
pattern. An exported record's verdict depends only on its sender, receiver,
kind and shape (it carries no LDP flag), so each distinct signature is
classified once and a record is built only for a line that violates; the
fairness lines' traffic is added up through ``per_round_fairness_cost``'s
own ``_FairnessTraffic``. Memory is one chunk, the violations and the
per-round table, however long the file. A file the pattern does not take
whole (a line in another JSON form, a blank line, bytes that are not UTF-8,
a number ``int()`` refuses, an unreadable path) goes whole through
``Transcript.read``, ``audit_transcript`` and ``per_round_fairness_cost``, so
its report or ``ParseError`` is theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .messages import (
    _CANONICAL_LINE,
    FAIRNESS_KINDS,
    Kind,
    LEGAL_EDGES,
    Role,
    Transcript,
    TranscriptRecord,
    _line_chunks,
)


class ViolationKind(str, Enum):
    RAW_FEATURE_LEAK = "raw-feature-leak"
    LOCAL_REP_MISROUTE = "local-rep-misroute"
    UNPERTURBED_UNIFIED = "unperturbed-unified"
    UNIFIED_TO_SENSITIVE = "unified-to-sensitive"
    SENSITIVE_LABEL_LEAK = "sensitive-label-leak"
    ILLEGAL_EDGE = "illegal-edge"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    record: TranscriptRecord
    detail: str


@dataclass(frozen=True)
class AuditPolicy:
    roles: dict[str, Role]  # platform name -> role
    rep_width: int
    protected_widths: dict[str, int]  # sensitive platform name -> H_i
    require_ldp_serving: bool = False
    require_ldp_training: bool = False
    # (sender, receiver, kind, shape, ldp_applied, phase) -> None or the
    # (kind, detail) ``_classify`` gives it under these fields, which are
    # frozen so it cannot go stale; ``dataclasses.replace`` starts it empty
    _verdicts: dict[tuple, tuple[ViolationKind, str] | None] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def for_run(cls, n_platforms: int, widths, ldp) -> "AuditPolicy":
        """The policy of a run with ``n_platforms`` insensitive platforms, its
        ``RepWidths`` and its ``LdpConfig``, under the protocol's platform
        names. It is built from these values, never from a federation's own
        platform table, so live and exported transcripts get the same policy."""
        protected = {f"sensitive/{f}": h for f, h in widths.protected.items()}
        roles = {"task": Role.TASK, "server": Role.SERVER,
                 **{f"insensitive/{i}": Role.INSENSITIVE for i in range(n_platforms)},
                 **dict.fromkeys(protected, Role.SENSITIVE)}
        return cls(roles=roles, rep_width=widths.rep, protected_widths=protected,
                   require_ldp_serving=ldp.enabled,
                   require_ldp_training=ldp.enabled and ldp.perturb_training)

    @classmethod
    def from_federation(cls, fed) -> "AuditPolicy":
        return cls.for_run(len(fed.insensitive), fed.bundle.widths, fed.ldp)


# enum lookups such as ``Kind.X.value`` cost more than a rule: resolve them once
_SERVER, _INSENSITIVE, _SENSITIVE = Role.SERVER, Role.INSENSITIVE, Role.SENSITIVE
_LOCAL_REP = Kind.LOCAL_REP_UPLOAD.value
_UNIFIED_REP = Kind.UNIFIED_REP_TO_TASK.value
_PROTECTED_REP = Kind.PROTECTED_REP_UPLOAD.value
_SENSITIVE_OUT = frozenset({Kind.BIAS_DISC_GRAD_DOWN.value, Kind.ADV_GRAD_DOWN.value})
_FAIRNESS = frozenset(k.value for k in FAIRNESS_KINDS)
#: the protocol's edge table keyed by kind string, as records carry it
_EDGES = {k.value: edges for k, edges in LEGAL_EDGES.items()}


def _width(rec: TranscriptRecord) -> int | None:
    return rec.shape[-1] if len(rec.shape) == 2 else None


def _classify(rec: TranscriptRecord, policy: AuditPolicy) -> Violation | None:
    kind = rec.kind
    role_s = policy.roles.get(rec.sender)
    role_r = policy.roles.get(rec.receiver)
    if role_s is None or role_r is None:
        return Violation(ViolationKind.ILLEGAL_EDGE, rec,
                         f"unknown platform on edge {rec.sender} -> {rec.receiver}")

    # (e) nothing but the two gradient returns may leave a sensitive platform
    if role_s is _SENSITIVE and kind not in _SENSITIVE_OUT:
        return Violation(ViolationKind.SENSITIVE_LABEL_LEAK, rec,
                         f"{rec.sender} emitted {kind}")

    # (d) unified-width payloads must never reach a sensitive platform
    if role_r is _SENSITIVE:
        if kind == _UNIFIED_REP or (
                kind == _PROTECTED_REP
                and _width(rec) == policy.rep_width
                and policy.protected_widths.get(rec.receiver) != policy.rep_width):
            return Violation(ViolationKind.UNIFIED_TO_SENSITIVE, rec,
                             f"rep-width payload ({rec.shape}) sent to {rec.receiver}")
        if kind == _PROTECTED_REP:
            expected = policy.protected_widths.get(rec.receiver)
            if expected is not None and _width(rec) != expected:
                return Violation(ViolationKind.UNIFIED_TO_SENSITIVE, rec,
                                 f"payload width {_width(rec)} != declared {expected}")

    # (b) local reps go to the server and nowhere else
    if kind == _LOCAL_REP and role_r is not _SERVER:
        return Violation(ViolationKind.LOCAL_REP_MISROUTE, rec,
                         f"local rep delivered to {rec.receiver}")

    # (a) the only thing leaving a data platform is a rep-width local rep
    if role_s is _INSENSITIVE:
        if kind != _LOCAL_REP:
            return Violation(ViolationKind.RAW_FEATURE_LEAK, rec,
                             f"{rec.sender} emitted {kind}")
        if _width(rec) != policy.rep_width:
            return Violation(ViolationKind.RAW_FEATURE_LEAK, rec,
                             f"upload width {_width(rec)} != rep width {policy.rep_width}")

    # (c) perturbation required on the unified upload (live transcripts only)
    if kind == _UNIFIED_REP and rec.ldp_applied is not None:
        required = (policy.require_ldp_serving if rec.phase == "serve"
                    else policy.require_ldp_training)
        if required and rec.ldp_applied is False:
            return Violation(ViolationKind.UNPERTURBED_UNIFIED, rec,
                             "LDP required but upload was not perturbed")

    # edge legality table
    edges = _EDGES.get(kind)
    if edges is None:
        return Violation(ViolationKind.RAW_FEATURE_LEAK, rec,
                         f"unknown payload kind {kind!r}")
    if (role_s, role_r) not in edges:
        return Violation(ViolationKind.ILLEGAL_EDGE, rec,
                         f"{kind}: {role_s.value} -> {role_r.value} not permitted")
    return None


def audit_transcript(transcript: Transcript | list[TranscriptRecord],
                     policy: AuditPolicy) -> list[Violation]:
    verdicts = policy._verdicts
    out = []
    for rec in transcript:
        sig = (rec.sender, rec.receiver, rec.kind, rec.shape, rec.ldp_applied, rec.phase)
        try:
            found = verdicts[sig]
        except KeyError:  # the signature's first sighting under this policy
            v = _classify(rec, policy)
            found = verdicts[sig] = None if v is None else (v.kind, v.detail)
        if found is not None:
            out.append(Violation(found[0], rec, found[1]))
    return out


def fairness_comm_cost(transcript: Transcript | list[TranscriptRecord]) -> int:
    """Total float count of fairness-machinery traffic (protected-rep uploads
    and their two gradient returns)."""
    return sum(r.float_count for r in transcript if r.kind in _FAIRNESS)


class _FairnessTraffic:
    """Per-round fairness traffic, added up one fairness record at a time."""

    def __init__(self):
        self.rounds: dict[int, dict[str, int]] = {}
        self.widths: dict[int, dict[str, int]] = {}  # round -> receiver -> H_i

    def add(self, round_id: int, receiver: str, kind: str, shape: tuple[int, ...],
            float_count: int) -> None:
        slot = self.rounds.setdefault(round_id, {"actual": 0, "batch": 0})
        slot["actual"] += float_count
        if kind == _PROTECTED_REP and len(shape) == 2:
            slot["batch"] = shape[0]
            self.widths.setdefault(round_id, {})[receiver] = shape[1]

    def table(self) -> dict[int, dict[str, int]]:
        """Each round's actual traffic, batch size and 4*E*sum(H_i) prediction."""
        for rid, slot in self.rounds.items():
            slot["expected"] = 4 * slot["batch"] * sum(self.widths.get(rid, {}).values())
        return self.rounds


def per_round_fairness_cost(transcript: Transcript | list[TranscriptRecord]
                            ) -> dict[int, dict[str, int]]:
    """Per round: actual fairness traffic, the 4*E*sum(H_i) prediction from the
    observed batch size, and the batch size itself."""
    traffic = _FairnessTraffic()
    for rec in transcript:
        if rec.kind in _FAIRNESS:
            traffic.add(rec.round_id, rec.receiver, rec.kind, rec.shape, rec.float_count)
    return traffic.table()


def audit_file(path: str | Path, policy: AuditPolicy
               ) -> tuple[list[Violation], dict[int, dict[str, int]], int]:
    """The violations, per-round fairness traffic and record count of the
    exported transcript at ``path``: streamed if every line is canonical,
    else from ``Transcript.read`` (which raises its ``ParseError``)."""
    streamed = _audit_canonical(path, policy)
    if streamed is not None:
        return streamed
    transcript = Transcript.read(path)
    return (audit_transcript(transcript, policy), per_round_fairness_cost(transcript),
            len(transcript))


def _audit_canonical(path: str | Path, policy: AuditPolicy
                     ) -> tuple[list[Violation], dict[int, dict[str, int]], int] | None:
    """``audit_file``'s result, one chunk at a time, if every line of the
    file is canonical with numbers ``int()`` takes; else None."""
    # (sender, receiver, kind, shape text) -> (violation or None, shape, is fairness)
    verdicts: dict[tuple[str, str, str, str], tuple] = {}
    violations: list[Violation] = []
    traffic = _FairnessTraffic()
    n_records = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for chunk in _line_chunks(fh):
                rows = _CANONICAL_LINE.findall(chunk)
                if len(rows) != chunk.count("\n"):
                    return None
                for rid, sender, receiver, kind, shape, count, digest in rows:
                    rid, count = int(rid), int(count)
                    sig = (sender, receiver, kind, shape)
                    verdict = verdicts.get(sig)
                    if verdict is None:
                        dims = tuple(map(int, shape.split(","))) if shape else ()
                        probe = TranscriptRecord(0, sender, receiver, kind, dims, 0, None)
                        verdict = verdicts[sig] = (_classify(probe, policy), dims,
                                                   kind in _FAIRNESS)
                    found, dims, fairness = verdict
                    if found is not None:
                        rec = TranscriptRecord(rid, sender, receiver, kind, dims, count,
                                               int(digest, 16) if digest else None)
                        violations.append(Violation(found.kind, rec, found.detail))
                    if fairness:
                        traffic.add(rid, receiver, kind, dims, count)
                n_records += len(rows)
    except (OSError, ValueError):  # unreadable, not UTF-8, or past int()'s digit limit
        return None
    return violations, traffic.table(), n_records
