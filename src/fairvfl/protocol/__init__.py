from .messages import Kind, Role, Transcript, TranscriptRecord
from .ldp import LdpConfig, ldp_perturb
from .federation import Federation, RoundResult
from .audit import AuditPolicy, Violation, ViolationKind, audit_transcript, fairness_comm_cost

__all__ = [
    "Kind", "Role", "Transcript", "TranscriptRecord",
    "LdpConfig", "ldp_perturb",
    "Federation", "RoundResult",
    "AuditPolicy", "Violation", "ViolationKind", "audit_transcript", "fairness_comm_cost",
]
