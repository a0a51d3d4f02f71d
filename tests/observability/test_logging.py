"""Tests for the structured logging plane (JSON-lines flight recorder)."""

import io
import json

from repro.observability.logging import (
    STRUCTURED_LOG,
    StructuredLog,
    logging_enabled,
    render_record,
    structured_log,
)


class TestStructuredLog:
    def test_emit_records_and_filters(self):
        log = StructuredLog()
        log.emit("bus", "handler_error", level="error", tick=4, topic="T_x")
        log.emit("delivery", "undeliverable", level="warning", tick=5)
        assert len(log.records()) == 2
        bus_only = log.records(component="bus")
        assert len(bus_only) == 1
        assert bus_only[0]["event"] == "handler_error"
        assert bus_only[0]["tick"] == 4
        assert log.records(event="undeliverable")[0]["component"] == "delivery"

    def test_ring_buffer_drops_oldest(self):
        log = StructuredLog(max_records=3)
        for index in range(5):
            log.emit("c", "e", seq=index)
        seqs = [record["seq"] for record in log.records()]
        assert seqs == [2, 3, 4]

    def test_sink_receives_json_lines(self):
        lines = []
        log = StructuredLog()
        log.set_sink(lines.append)
        log.emit("health", "slo_fired", rule="queue-depth", value=65)
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["component"] == "health"
        assert parsed["rule"] == "queue-depth"
        assert parsed["value"] == 65

    def test_stream_sink(self):
        stream = io.StringIO()
        log = StructuredLog()
        log.set_sink(stream)
        log.emit("a", "b")
        log.emit("a", "c")
        emitted = stream.getvalue().splitlines()
        assert len(emitted) == 2
        assert json.loads(emitted[1])["event"] == "c"

    def test_render_record_stringifies_non_json(self):
        line = render_record({"component": "x", "event": "y", "obj": object()})
        assert json.loads(line)["component"] == "x"  # no raise

    def test_render_lines_and_clear(self):
        log = StructuredLog()
        log.emit("a", "b")
        assert json.loads(log.render_lines())["event"] == "b"
        log.clear()
        assert log.records() == ()
        assert log.render_lines() == ""

    def test_trace_correlation(self):
        from repro.observability.trace import Tracer

        log = StructuredLog()
        tracer = Tracer(sample_every=1)
        log.bind_tracer(tracer)
        with tracer.span("bus.dispatch", logical_time=1):
            record = log.emit("bus", "handler_error")
        assert "trace" in record
        assert record["span"] >= 1
        # Outside any span the record carries no trace fields.
        plain = log.emit("bus", "handler_error")
        assert "trace" not in plain


class TestProcessWidePlane:
    def test_disabled_by_default(self):
        assert structured_log() is STRUCTURED_LOG

    def test_logging_enabled_scope(self):
        lines = []
        assert not STRUCTURED_LOG.enabled
        with logging_enabled(lines.append) as log:
            assert log.enabled
            log.emit("scope", "inside")
        assert not STRUCTURED_LOG.enabled
        assert len(lines) == 1
        # Records are kept after the scope; `clear=True` on the next entry
        # drops them.
        assert STRUCTURED_LOG.records(component="scope")
        with logging_enabled():
            assert STRUCTURED_LOG.records(component="scope") == ()

    def test_pipeline_emits_on_handler_error(self, system):
        # A failing subscriber writes a structured record from the bus
        # dispatch path.

        def boom(event):
            raise RuntimeError("broken detector")

        system.bus.subscribe("T_activity", boom)
        with logging_enabled():
            from repro.events.event import Event
            from repro.events.producers import ACTIVITY_EVENT_TYPE

            system.bus.publish(
                Event.trusted(
                    ACTIVITY_EVENT_TYPE,
                    {
                        "time": 1,
                        "activityInstanceId": "a-1",
                        "parentProcessSchemaId": None,
                        "parentProcessInstanceId": None,
                        "user": None,
                        "activityVariableId": None,
                        "activityProcessSchemaId": None,
                        "oldState": "Ready",
                        "newState": "Running",
                    },
                )
            )
        records = STRUCTURED_LOG.records(component="bus", event="handler_error")
        assert records
        assert records[-1]["level"] == "error"
        assert "broken detector" in records[-1]["error"]
