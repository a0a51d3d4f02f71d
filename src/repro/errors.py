"""Exception hierarchy for the CMI reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers embedding the library can catch a single base class.  The hierarchy
mirrors the layering of the system: model errors (schemas, states,
resources), enactment errors (coordination), event-processing errors
(awareness descriptions, operators), and delivery errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# CMM model errors (CORE)
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """A CMM schema (activity, resource, or state schema) is malformed."""


class StateError(SchemaError):
    """An activity state schema or state machine constraint was violated."""


class UnknownStateError(StateError):
    """A state name does not exist in the activity state schema."""


class InvalidTransitionError(StateError):
    """A requested state transition is not allowed by the state schema."""


class ResourceError(ReproError):
    """A resource schema or resource instance constraint was violated."""


class ContextError(ResourceError):
    """A context resource was misused."""


class UnknownFieldError(ContextError):
    """A context field name does not exist in the context schema."""


class ScopeError(ContextError):
    """An activity touched a context it has no reference to (out of scope)."""


class RoleError(ResourceError):
    """A participant role was misused."""


class RoleResolutionError(RoleError):
    """A role could not be resolved to participants at detection time."""


# ---------------------------------------------------------------------------
# Coordination (CM) errors
# ---------------------------------------------------------------------------


class DependencyError(ReproError):
    """A dependency variable is malformed or references unknown activities."""


class EnactmentError(ReproError):
    """Process enactment was driven into an illegal operation."""


class WorklistError(EnactmentError):
    """A work item was claimed or completed by the wrong participant."""


# ---------------------------------------------------------------------------
# Event substrate errors
# ---------------------------------------------------------------------------


class EventError(ReproError):
    """An event or event type was malformed."""


class EventTypeError(EventError):
    """An event does not conform to its declared event type."""


class QueueError(ReproError):
    """A persistent delivery queue failed or was misused."""


# ---------------------------------------------------------------------------
# Awareness model (AM) errors
# ---------------------------------------------------------------------------


class SpecificationError(ReproError):
    """An awareness specification is malformed."""


class DagValidationError(SpecificationError):
    """An awareness description DAG violates a structural constraint."""


class SlotError(SpecificationError):
    """An operator input slot was wired with the wrong type or cardinality."""


class ParameterError(SpecificationError):
    """An event operator was instantiated with invalid parameters."""


class DeliveryError(ReproError):
    """Awareness delivery to participants failed."""


# ---------------------------------------------------------------------------
# Service model (SM) errors
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """A service definition, agreement, or invocation failed."""


# ---------------------------------------------------------------------------
# Parallel / sharded enactment errors
# ---------------------------------------------------------------------------


class ParallelError(ReproError):
    """The sharded execution layer was misused or misconfigured."""


class FrameRefusedError(EventTypeError, ParallelError):
    """A shard's ingest door refused a frame whole: one of its events does
    not conform, or no producer of the shard serves its type, and no
    event of the frame reached the pipeline."""


class WireError(ParallelError):
    """A wire-protocol frame was malformed or truncated."""


class ShardCrashError(ParallelError):
    """A shard worker process died; its channel is unusable."""


class DurabilityError(ParallelError):
    """The write-ahead journal or a shard snapshot was misused or corrupt."""


class SnapshotUnsupportedError(DurabilityError):
    """A snapshot does not fit the pipeline it is restored into (the
    blueprint diverged from the one the snapshot was taken under)."""


# ---------------------------------------------------------------------------
# Workload / benchmark errors
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """A synthetic workload was configured inconsistently."""
