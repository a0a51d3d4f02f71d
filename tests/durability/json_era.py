"""Fabricate the journal format that predates the binary codec.

No runtime mode writes JSON journals any more, but durable directories
written by one can still exist, and reading/upgrading them is supported
behaviour.  The tests (and QE14) build such a file from a binary
journal: same frames, same order, the old framing.
"""

from repro.durability.log import load_journal
from repro.parallel.wire import event_to_wire, frame_bytes


def downgrade_to_json(path):
    """Rewrite the binary journal at *path* as a JSON-era journal."""
    frames = load_journal(path).frames
    with open(path, "wb") as stream:
        for frame in frames:
            if frame.get("kind") == "events":
                frame = dict(
                    frame,
                    events=[
                        event_to_wire(event, provenance=True)
                        for event in frame["events"]
                    ],
                )
            stream.write(frame_bytes(frame))
