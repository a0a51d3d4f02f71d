"""The shard worker process: one pipeline behind two pipes.

``worker_main`` is the forked child's entry point.  It owns one
:class:`~repro.parallel.host.ShardHost` and serves frames from its input
pipe in arrival order; it only ever *writes* what it is asked for (a
response to ``stats`` / ``flush`` / ``snapshot`` / ``shutdown``, or its
last-words ``error``), so the channel cannot deadlock — the parent's
event sends are pipelined fire-and-forget, the pipe is the flow control
(a full pipe is what defers the facade's next event frame), and every
read the parent performs has exactly one pending response.

Protocol frames (see :mod:`repro.parallel.wire` for the framing):

* ``{"kind": "events", "events": [...], "seq": N,
  "trace": [tid, psid, 0|1]}`` — ingest a routed batch; ``seq`` is the
  facade's per-shard frame sequence number (what the ``replay`` mark
  compares), and the optional ``trace`` context carries the facade's
  head-sampling decision, honored verbatim (no re-sampling) unless it
  is a replay;
* ``{"kind": "deploy", "spec": {...}}`` / ``{"kind": "undeploy",
  "spec_id": ...}`` — detector lifecycle;
* ``{"kind": "stats"}`` → ``{"kind": "stats", "stats": {...},
  "errors": [...], "observability": {...}}``;
* ``{"kind": "flush"}`` → ``{"kind": "results", "notifications": [...],
  "observability": {...}}``
  — drain the recorded notification stream (sequence numbers included).

Both read responses piggyback an ``observability`` payload — the shard's
full metrics-registry snapshot, its buffered sampled span batches, and
(when ``ship_logs`` is on) the structured-log records past the shipping
cursor — so the facade's federation views refresh on every read without
extra round trips, and span/log shipping rides frames that already
exist;
* ``{"kind": "snapshot"}`` → ``{"kind": "snapshot", "state": {...}}`` —
  the host's recoverable state, raw operator partitions included
  (``state`` is ``None`` when a live operator holds state the codec
  cannot express; the supervisor then keeps the full journal instead);
* ``{"kind": "restore", "state": {...}}`` — load a snapshot payload
  into the freshly booted host (sent once, right after fork, before the
  journal tail is replayed);
* ``{"kind": "replay", "below": N}`` — the journal's bytes follow; an
  ``events`` frame with ``seq`` below ``N`` is a replay, ingested with
  its trace context forced unsampled (its spans shipped before the
  crash); the ingest door's refusal of a replay is not reported again
  (the refused frame moved no state, and its refusal was reported when
  it came live);
* ``{"kind": "shutdown"}`` → ``{"kind": "bye"}`` and a clean exit — the
  poison pill.

Recoverable per-frame failures (a bad spec, an unroutable event type)
are recorded and reported with the next ``stats`` response; anything
else writes a final ``error`` frame and exits nonzero so the parent sees
EOF, not a hang.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Dict, List

from ..errors import FrameRefusedError, ReproError
from ..observability import INSTRUMENTATION as _OBS
from ..observability import STRUCTURED_LOG as _SLOG
from .codec import BinaryFrameReader, BinaryFrameWriter, read_hello
from .host import FederationBlueprint, ShardHost, ShardSpec
from .wire import SEQ_KEY, extract_trace


def worker_main(
    shard_id: int,
    shard_count: int,
    in_fd: int,
    out_fd: int,
    close_fds: List[int],
    options: Dict[str, Any],
    blueprint_wire: Dict[str, Any],
) -> None:
    """Serve one shard until the poison pill (or EOF) arrives."""
    # A fork copies every parent fd, including the pipes of sibling
    # workers forked earlier.  Holding those copies would keep a crashed
    # sibling's channel half-open (the parent would never see EOF), so
    # each worker first drops everything that is not its own pair.
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass

    # Instrumentation is process-global; the fork inherited the parent's
    # flag, so set it to what the shard config asks for, explicitly.
    if options.get("instrument"):
        _OBS.reset()
        _OBS.enable()
    else:
        _OBS.disable()
    # Structured logging is likewise process-global and inherited; a
    # log-shipping worker records into its own ring (no sink — the
    # facade drains over the frame protocol), others stay silent.
    ship_logs = bool(options.get("ship_logs"))
    _SLOG.clear()
    # The fork also inherited the parent's emission counter; a fresh
    # worker's stream starts at 1 so the shipping cursor below (and the
    # supervisor's replay watermark) line up with what this worker emits.
    _SLOG.set_seq(0)
    _SLOG.enabled = ship_logs
    #: The shipped-records high-watermark: records at or below it have
    #: already crossed the pipe (or were re-emitted during replay after
    #: a snapshot restore reset the emission counter beneath it).
    log_cursor = 0

    def observability() -> Dict[str, Any]:
        nonlocal log_cursor
        payload: Dict[str, Any] = {
            "registry": host.metrics_snapshot(),
            "spans": host.drain_spans(),
        }
        if ship_logs:
            logs = host.drain_logs(log_cursor)
            log_cursor = int(logs["cursor"])
            payload["logs"] = logs
        return payload

    inp = os.fdopen(in_fd, "rb")
    out = os.fdopen(out_fd, "wb")
    exit_code = 0
    errors: List[str] = []
    # Built before anything can fail, the hello check included: the
    # crash path below needs the writer for the worker's last words.
    reader = BinaryFrameReader(inp)
    writer = BinaryFrameWriter(out)
    try:
        # The parent's hello bytes precede every frame on the event pipe.
        read_hello(inp)
        host = ShardHost(shard_id, shard_count)
        host.ship_logs = ship_logs
        host.apply_blueprint(FederationBlueprint.from_wire(blueprint_wire))
        # Event frames sequenced below this mark are journal replays.
        replay_below = 0

        while True:
            frame = reader.read(runs=True)
            if frame is None:  # parent vanished: treat as shutdown
                break
            kind = frame.get("kind")
            try:
                if kind == "events":
                    seq = frame.get(SEQ_KEY)
                    ctx = extract_trace(frame)
                    replayed = seq is not None and seq < replay_below
                    if replayed and ctx is not None:
                        # A replay: its spans shipped before the crash.
                        ctx = replace(ctx, sampled=False)
                    try:
                        host.ingest(
                            frame["events"], ctx, reader.decoder.covers
                        )
                    except FrameRefusedError:
                        # A refused frame moved no state, so its replay
                        # is a no-op; it was reported when it came live.
                        if not replayed:
                            raise
                elif kind == "deploy":
                    host.deploy_spec(ShardSpec.from_wire(frame["spec"]))
                elif kind == "undeploy":
                    host.undeploy_spec(frame["spec_id"])
                elif kind == "stats":
                    writer.write(
                        {
                            "kind": "stats",
                            "stats": host.stats(),
                            "errors": list(errors),
                            "observability": observability(),
                        }
                    )
                    errors.clear()
                elif kind == "flush":
                    writer.write(
                        {
                            "kind": "results",
                            "notifications": host.drain_results(),
                            "observability": observability(),
                        }
                    )
                elif kind == "snapshot":
                    writer.write(
                        {
                            "kind": "snapshot",
                            "state": host.snapshot_state(),
                        }
                    )
                elif kind == "restore":
                    host.restore_state(frame["state"])
                    # The restore moved the log's emission counter to the
                    # snapshot's position; records below it are covered
                    # state, not unshipped backlog, so the shipping
                    # cursor must not count them as dropped.
                    log_cursor = _SLOG.seq
                elif kind == "replay":
                    replay_below = frame["below"]
                elif kind == "shutdown":
                    writer.write({"kind": "bye"})
                    break
                else:
                    errors.append(f"unknown frame kind {kind!r}")
            except ReproError as error:
                # Recoverable: the pipeline is still consistent.  Report
                # with the next stats exchange instead of dying, typed.
                errors.append(f"{kind}: {type(error).__name__}: {error}")
    except BaseException as error:  # pragma: no cover - crash path
        exit_code = 1
        frame = {"kind": "error", "error": f"{type(error).__name__}: {error}"}
        try:
            writer.write(frame)
        except OSError:
            pass
    finally:
        try:
            out.close()
        except OSError:  # pragma: no cover
            pass
        try:
            inp.close()
        except OSError:  # pragma: no cover
            pass
    os._exit(exit_code)
