"""Typed protocol messages, edge legality, and the append-only transcript.

Transcript records keep message metadata plus a BLAKE2b-64 digest of the
little-endian payload bytes (``digest.digest_array``); payloads themselves
are not retained, so two runs can be compared bitwise without storing
gigabytes.

Only federations built with ``FederationConfig(payload_digests=True)`` (the
default, and what ``cmd_train`` uses for its exported ``transcript.ndjson``)
hash payloads. In-memory federations from ``runner.build_run_federation``
skip the hash: their records carry ``digest=None``, written as
``"payload_digest": null``. The auditor and the traffic accounting read only
kind, shape and float_count, so they treat both alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from ..digest import digest_array
from ..errors import ParseError


class Role(str, Enum):
    TASK = "task"
    SERVER = "server"
    INSENSITIVE = "insensitive"
    SENSITIVE = "sensitive"


class Kind(str, Enum):
    SAMPLE_IDS = "SampleIds"
    LOCAL_REP_UPLOAD = "LocalRepUpload"
    UNIFIED_REP_TO_TASK = "UnifiedRepToTask"
    TASK_GRAD_DOWN = "TaskGradDown"
    PROTECTED_REP_UPLOAD = "ProtectedRepUpload"
    BIAS_DISC_GRAD_DOWN = "BiasDiscGradDown"
    ADV_GRAD_DOWN = "AdvGradDown"
    LOCAL_REP_GRAD_DOWN = "LocalRepGradDown"


#: Fairness-machinery traffic, the kinds counted by the communication formula.
FAIRNESS_KINDS = frozenset(
    {Kind.PROTECTED_REP_UPLOAD, Kind.BIAS_DISC_GRAD_DOWN, Kind.ADV_GRAD_DOWN}
)

LEGAL_EDGES: dict[Kind, frozenset[tuple[Role, Role]]] = {
    Kind.SAMPLE_IDS: frozenset({(Role.TASK, Role.INSENSITIVE), (Role.TASK, Role.SENSITIVE)}),
    Kind.LOCAL_REP_UPLOAD: frozenset({(Role.INSENSITIVE, Role.SERVER)}),
    Kind.UNIFIED_REP_TO_TASK: frozenset({(Role.SERVER, Role.TASK)}),
    Kind.TASK_GRAD_DOWN: frozenset({(Role.TASK, Role.SERVER)}),
    Kind.PROTECTED_REP_UPLOAD: frozenset({(Role.SERVER, Role.SENSITIVE)}),
    Kind.BIAS_DISC_GRAD_DOWN: frozenset({(Role.SENSITIVE, Role.SERVER)}),
    Kind.ADV_GRAD_DOWN: frozenset({(Role.SENSITIVE, Role.SERVER)}),
    Kind.LOCAL_REP_GRAD_DOWN: frozenset({(Role.SERVER, Role.INSENSITIVE)}),
}


@dataclass
class Message:
    """An in-flight message; the payload array is consumed by the receiver."""

    round_id: int
    sender: str
    receiver: str
    kind: Kind
    payload: np.ndarray
    ldp_applied: bool | None = None  # only meaningful for unified-rep uploads


@dataclass(frozen=True)
class TranscriptRecord:
    round_id: int
    sender: str
    receiver: str
    kind: str
    shape: tuple[int, ...]
    float_count: int
    digest: int | None  # None when the federation skips payload digests
    # Not part of the exported record format; carried for live audits only.
    ldp_applied: bool | None = None
    phase: str | None = None

    def to_line(self) -> str:
        return json.dumps(
            {
                "round": self.round_id,
                "sender": self.sender,
                "receiver": self.receiver,
                "kind": self.kind,
                "shape": list(self.shape),
                "float_count": self.float_count,
                "payload_digest": (None if self.digest is None
                                   else f"0x{self.digest:016x}"),
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_line(cls, line: str, lineno: int) -> "TranscriptRecord":
        try:
            obj = json.loads(line)
            digest = obj["payload_digest"]
            return cls(
                round_id=int(obj["round"]),
                sender=str(obj["sender"]),
                receiver=str(obj["receiver"]),
                kind=str(obj["kind"]),
                shape=tuple(int(x) for x in obj["shape"]),
                float_count=int(obj["float_count"]),
                digest=None if digest is None else int(digest, 16),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad transcript record: {exc}", line=lineno) from exc


def record_of(msg: Message, phase: str | None = None,
              digest: bool = True) -> TranscriptRecord:
    """The transcript record of a message; ``digest=False`` skips hashing the
    payload and records ``digest=None``."""
    payload = np.asarray(msg.payload)
    return TranscriptRecord(
        round_id=msg.round_id,
        sender=msg.sender,
        receiver=msg.receiver,
        kind=msg.kind.value if isinstance(msg.kind, Kind) else str(msg.kind),
        shape=tuple(payload.shape),
        float_count=int(payload.size),
        digest=digest_array(payload) if digest else None,
        ldp_applied=msg.ldp_applied,
        phase=phase,
    )


class Transcript:
    """Append-only, ordered log of everything exchanged."""

    def __init__(self, records: list[TranscriptRecord] | None = None):
        self.records: list[TranscriptRecord] = list(records or [])

    def append(self, rec: TranscriptRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def kind_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    def drain(self) -> list[TranscriptRecord]:
        """Hands over and clears the buffered records (for streaming export)."""
        out, self.records = self.records, []
        return out

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(rec.to_line() + "\n")

    @classmethod
    def read(cls, path: str | Path) -> "Transcript":
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    records.append(TranscriptRecord.from_line(line, lineno))
        return cls(records)


def write_records(fh, records: list[TranscriptRecord]) -> None:
    for rec in records:
        fh.write(rec.to_line() + "\n")
