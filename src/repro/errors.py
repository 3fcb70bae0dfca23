"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Subclasses are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class MathError(ReproError):
    """Errors from the number-theory / linear-algebra substrate."""


class NotInvertibleError(MathError):
    """An element has no multiplicative inverse (gcd with modulus != 1)."""


class NoSquareRootError(MathError):
    """A field element is not a quadratic residue."""


class FieldMismatchError(MathError):
    """Operands belong to different fields / rings."""


class SingularMatrixError(MathError):
    """A linear-algebra routine required an invertible matrix."""


class GroupError(ReproError):
    """Errors from the cyclic-group backends."""


class NotOnCurveError(GroupError):
    """A point/divisor does not satisfy the curve equation."""


class InvalidParameterError(ReproError):
    """A supplied parameter violates a documented precondition."""


class CryptoError(ReproError):
    """Errors from symmetric/asymmetric primitives."""


class AuthenticationError(CryptoError):
    """A MAC or signature failed to verify."""


class DecryptionError(CryptoError):
    """Ciphertext could not be decrypted (bad key, padding, or tag)."""


class CommitmentError(CryptoError):
    """A commitment failed to open to the claimed value."""


class OCBEError(ReproError):
    """Protocol errors in the OCBE family."""


class ProtocolStateError(OCBEError):
    """An OCBE message was received in the wrong protocol state."""


class PredicateError(OCBEError):
    """Unsupported or malformed predicate."""


class PolicyError(ReproError):
    """Errors in the policy language."""


class PolicyParseError(PolicyError):
    """A policy/condition string could not be parsed."""


class GKMError(ReproError):
    """Errors from group-key-management schemes."""


class KeyDerivationError(GKMError):
    """A subscriber failed to derive a group key."""


class CapacityError(GKMError):
    """A GKM instance exceeded its configured maximum size N."""


class DocumentError(ReproError):
    """Errors from the document model / broadcast packaging."""


class SerializationError(ReproError):
    """Malformed serialized bytes."""


class StoreError(ReproError):
    """Errors from the durable state layer (:mod:`repro.store`)."""


class LogCorruptionError(StoreError):
    """A fully-present WAL/snapshot record failed its integrity checks
    (bad magic, CRC mismatch, oversized declaration, mid-log garbage).
    A *truncated final* record is not corruption -- it is the expected
    shape of a torn write and is silently dropped on replay."""


class StoreVersionError(StoreError):
    """On-disk state was written by an incompatible store format version,
    or a snapshot and its WAL do not belong to the same generation."""


class SnapshotMismatchError(StoreError):
    """A recovered snapshot disagrees with the live entity it is being
    applied to (wrong entity name, different policy set, ...)."""


class LoadScenarioError(ReproError):
    """A load scenario could not be run as specified (malformed spec,
    a phase operating on members that do not exist, driver misuse)."""


class InvariantViolation(ReproError):
    """A load-scenario invariant failed after a phase: a revoked member
    still derives the group key, a current member cannot, or a rekey
    produced unicast traffic.  Always a real bug, never noise."""


class SystemError_(ReproError):
    """Errors in the system layer (entities, transport, registration)."""


class NetworkError(SystemError_):
    """A socket-transport operation failed (connect, handshake, I/O,
    broker unreachable, or a peer closed the connection)."""


class SlowConsumerError(NetworkError):
    """A connection's outbound backlog exceeded its bound.

    The broker/relay slow-consumer policy: rather than queue without
    limit for a downstream that has stopped reading, the server
    disconnects the connection, counts the event (surfaced in
    ``StatsReply.counters``), and lets the entity's traffic fall back to
    its bounded offline inbox at the root."""


class RegistrationError(SystemError_):
    """Identity-token registration was rejected by the publisher."""


class SignatureError(SystemError_):
    """An identity token carries an invalid IdMgr signature."""
