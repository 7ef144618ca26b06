"""Protocol message kinds and platform roles, edge legality, and the
append-only transcript.

A message exists only as the arguments of ``Federation.send``: its round,
sender, receiver, kind, payload and, for unified-rep uploads, its LDP flag.
``record_of`` turns those fields into the message's transcript record, which
keeps the metadata plus a BLAKE2b-64 digest of the little-endian payload
bytes (``digest.digest_array``); payloads themselves are not retained, so
two runs can be compared bitwise without storing gigabytes.

Only federations built with ``Federation(..., payload_digests=True)`` (what
``cmd_train`` uses for its exported ``transcript.ndjson``) hash payloads.
In-memory federations, ``runner.build_run_federation``'s default, skip the
hash: their records carry ``digest=None``, written as
``"payload_digest": null``. The auditor and the traffic accounting read only
kind, shape and float_count, so they treat both alike.

An exported transcript has one record per line, in one canonical form: the
keys ``round``, ``sender``, ``receiver``, ``kind``, ``shape``,
``float_count``, ``payload_digest`` in that order, ``,`` and ``:`` with no
spaces, strings escaped to ASCII as ``json.dumps`` escapes them, and the
digest as ``"0x"`` plus 16 lowercase hex digits, or ``null``. This is
``json.dumps(..., separators=(",", ":"))`` of the record, byte for byte,
built by one format string. Records are hashable and compare by value, but
are not frozen.

``Transcript.read`` reads the file in chunks of whole lines, about 256k
characters each, and parses a chunk with one ``findall`` of the canonical
pattern: one C-level pass for all its records, and each distinct shape string
converted once. A chunk with any line that pass misses (a line in another
JSON form, a blank or padded line, a BOM) or a number ``int()`` refuses is
parsed line by line with ``TranscriptRecord.from_line``, which matches the
same pattern and sends every other line to the json module's scanner, so the
reader accepts any JSON object with those keys, as ``json.loads`` would read
it. Lines are split as text-mode iteration splits them: universal newlines,
then a break only at a line feed, never at U+2028 or the other breaks
``str.splitlines`` knows, which a JSON string may hold raw. A file that
fails is read once more line by line, so which error it reports (a bad
record, or bytes that are not UTF-8) is what a line-by-line read meets first.

``fairvfl audit`` does not hold the records: ``audit.audit_file`` streams the
same chunks through the same pattern, builds a record only for a line that
violates, and reads a file the pattern does not take whole with
``Transcript.read``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
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


#: one JSON value from a position in a string, as ``json.loads`` reads it
_scan_once = json.JSONDecoder().scan_once

# The canonical line, and only lines the scanner reads to the same values:
# ints without sign or leading zero, in ASCII digits ([0-9], since int()
# also takes digits JSON rejects); strings without quote, backslash or
# control character, so they need no unescaping.
_INT = r"(?:0|[1-9][0-9]*)"
_STR = r'"([^"\\\x00-\x1f]*)"'
_CANONICAL = re.compile(
    rf'\{{"round":({_INT}),"sender":{_STR},"receiver":{_STR},"kind":{_STR},'
    rf'"shape":\[({_INT}(?:,{_INT})*)?\],"float_count":({_INT}),'
    rf'"payload_digest":(?:null|"0x([0-9a-f]{{16}})")\}}')
#: the canonical form as a whole line of a chunk, from its start to its line feed
_CANONICAL_LINE = re.compile(rf"^{_CANONICAL.pattern}\n", re.MULTILINE)
#: characters ``Transcript.read`` reads per chunk, before cutting to whole
#: lines. A chunk's pattern pass holds about 4x its size in row tuples; larger
#: chunks read no faster.
_CHUNK_CHARS = 1 << 18


@dataclass(unsafe_hash=True)
class TranscriptRecord:
    """One exchanged message's metadata. ``kind`` is a plain ``str``, as
    ``record_of`` and ``from_line`` make it; the auditor is keyed by it.
    Not frozen, since a frozen ``__init__`` costs ~4x as much to build; equal
    records hash alike."""

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
        """The canonical line: what ``json.dumps`` with ``(",", ":")``
        separators writes for the record's seven exported fields."""
        digest = "null" if self.digest is None else f'"0x{self.digest:016x}"'
        return (f'{{"round":{self.round_id},"sender":{_quote(self.sender)},'
                f'"receiver":{_quote(self.receiver)},"kind":{_quote(self.kind)},'
                f'"shape":[{",".join(map(str, self.shape))}],'
                f'"float_count":{self.float_count},"payload_digest":{digest}}}')

    @classmethod
    def from_line(cls, line: str, lineno: int) -> "TranscriptRecord":
        """Parses one stripped line. A canonical line is read from the
        pattern's groups; any other goes through ``json.loads`` without its
        wrappers and whitespace regexes, so every line it rejects (a BOM,
        trailing data, an empty value, bad JSON) raises ``ParseError``."""
        try:
            m = _CANONICAL.fullmatch(line)
            if m is not None:
                rid, sender, receiver, kind, shape, count, digest = m.groups()
                return cls(int(rid), sender, receiver, kind,
                           tuple(map(int, shape.split(","))) if shape else (),
                           int(count), None if digest is None else int(digest, 16))
            obj, end = _scan_once(line, 0)
            if end != len(line):
                raise ValueError(f"extra data at column {end + 1}")
            digest = obj["payload_digest"]
            return cls(int(obj["round"]), str(obj["sender"]), str(obj["receiver"]),
                       str(obj["kind"]), tuple(map(int, obj["shape"])),
                       int(obj["float_count"]), None if digest is None else int(digest, 16))
        except StopIteration as exc:
            raise ParseError(f"bad transcript record: no JSON value at column "
                             f"{exc.value + 1}", line=lineno) from None
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ParseError(f"bad transcript record: {exc}", line=lineno) from exc


def record_of(round_id: int, sender: str, receiver: str, kind: Kind, payload: np.ndarray,
              ldp_applied: bool | None, phase: str, digest: bool) -> TranscriptRecord:
    """The transcript record of one message: its fields, the payload's shape
    and size, and the payload's digest, or ``None`` when ``digest`` is False.
    ``ldp_applied`` is only meaningful for unified-rep uploads."""
    return TranscriptRecord(round_id, sender, receiver, kind.value, payload.shape,
                            payload.size, digest_array(payload) if digest else None,
                            ldp_applied, phase)


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

    def drain(self) -> list[TranscriptRecord]:
        """Hands over and clears the buffered records (for streaming export)."""
        out, self.records = self.records, []
        return out

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            write_records(fh, self.records)

    @classmethod
    def read(cls, path: str | Path) -> "Transcript":
        """Parses an exported transcript; an unreadable file, bytes that are
        not UTF-8 or a malformed record raise ``ParseError``."""
        try:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    return cls(_parse_chunks(fh))
            except (ParseError, UnicodeDecodeError):
                # a bad file: report the error a line-by-line read meets first
                with open(path, "r", encoding="utf-8") as fh:
                    return cls(_parse_lines(fh, 1))
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read transcript {path}: {exc}") from exc


def _parse_chunks(fh) -> list[TranscriptRecord]:
    """The records of a text-mode file, one pattern pass per chunk of lines."""
    records: list[TranscriptRecord] = []
    lineno = 1
    for chunk in _line_chunks(fh):
        records += _parse_canonical(chunk) or _parse_lines(chunk.split("\n"), lineno)
        lineno += chunk.count("\n")
    return records


def _line_chunks(fh):
    """The text of ``fh`` in chunks of whole lines, each ending in a line
    feed; a last line without one gets one."""
    tail = ""
    while block := fh.read(_CHUNK_CHARS):
        cut = block.rfind("\n") + 1
        if cut:
            yield tail + block[:cut]
            tail = block[cut:]
        else:
            tail += block
    if tail:
        yield tail + "\n"


def _parse_canonical(chunk: str) -> list[TranscriptRecord] | None:
    """The records of ``chunk`` if every line of it is canonical, with
    numbers ``int()`` takes; else None."""
    rows = _CANONICAL_LINE.findall(chunk)
    if len(rows) != chunk.count("\n"):
        return None
    try:
        shapes = {s: tuple(map(int, s.split(","))) if s else () for s in {r[4] for r in rows}}
        return [TranscriptRecord(int(rid), sender, receiver, kind, shapes[shape],
                                 int(count), int(digest, 16) if digest else None)
                for rid, sender, receiver, kind, shape, count, digest in rows]
    except ValueError:  # a number past int()'s digit limit
        return None


def _parse_lines(lines, lineno: int) -> list[TranscriptRecord]:
    """The records of the non-blank ``lines``, numbered from ``lineno``."""
    stripped = (line.strip() for line in lines)
    return [TranscriptRecord.from_line(line, n)
            for n, line in enumerate(stripped, start=lineno) if line]


def write_records(fh, records: list[TranscriptRecord]) -> None:
    for rec in records:
        fh.write(rec.to_line() + "\n")
