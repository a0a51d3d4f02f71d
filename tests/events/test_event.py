"""Tests for self-contained events and event types (Section 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EventError, EventTypeError
from repro.events.event import (
    Event,
    EventType,
    ParameterSpec,
    base_parameters,
)


def simple_type(extra=()):
    return EventType("T_test", (*base_parameters(), *extra))


class TestEventType:
    def test_requires_self_contained_parameters(self):
        with pytest.raises(EventTypeError):
            EventType("T_bad", (ParameterSpec("time", "int"),))

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(EventTypeError):
            EventType(
                "T_bad", (*base_parameters(), ParameterSpec("time", "int"))
            )

    def test_equality_by_name(self):
        assert simple_type() == simple_type((ParameterSpec("x", "int"),))
        assert simple_type() != EventType("T_other", base_parameters())
        assert hash(simple_type()) == hash(simple_type())

    def test_conformance_checks_required_parameters(self):
        event_type = simple_type((ParameterSpec("value", "int"),))
        with pytest.raises(EventTypeError):
            event_type.conforms({"type": "T_test", "time": 1, "source": "s"})

    def test_conformance_checks_value_types(self):
        event_type = simple_type((ParameterSpec("value", "int"),))
        with pytest.raises(EventTypeError):
            event_type.conforms(
                {"type": "T_test", "time": 1, "source": "s", "value": "x"}
            )

    def test_optional_parameters_may_be_absent(self):
        event_type = simple_type(
            (ParameterSpec("value", "int", required=False),)
        )
        event_type.conforms({"type": "T_test", "time": 1, "source": "s"})

    def test_non_nullable_rejects_none(self):
        event_type = simple_type(
            (ParameterSpec("value", "int", nullable=False),)
        )
        with pytest.raises(EventTypeError):
            event_type.conforms(
                {"type": "T_test", "time": 1, "source": "s", "value": None}
            )

    def test_a_required_any_parameter_fails_only_when_absent(self):
        event_type = simple_type(
            (ParameterSpec("v", "any"), ParameterSpec("w", "any", nullable=False))
        )
        base = {"type": "T_test", "time": 1, "source": "s"}
        event_type.conforms({**base, "v": None, "w": object()})
        with pytest.raises(EventTypeError, match="missing required parameter 'v'"):
            event_type.conforms({**base, "w": 1})
        with pytest.raises(EventTypeError, match="'w' must not be null"):
            event_type.conforms({**base, "v": 1, "w": None})

    def test_type_name_mismatch_rejected(self):
        event_type = simple_type()
        with pytest.raises(EventTypeError):
            event_type.conforms({"type": "T_other", "time": 1, "source": "s"})


class TestEvent:
    def test_event_fills_type_parameter(self):
        event = Event(simple_type(), {"time": 4, "source": "s"})
        assert event["type"] == "T_test"
        assert event.time == 4
        assert event.source == "s"

    def test_parameters_are_read_only(self):
        event = Event(simple_type(), {"time": 4, "source": "s"})
        with pytest.raises(TypeError):
            event.params["time"] = 9  # type: ignore[index]

    def test_missing_parameter_access_raises(self):
        event = Event(simple_type(), {"time": 4, "source": "s"})
        with pytest.raises(EventError):
            event["ghost"]
        assert event.get("ghost", 42) == 42
        assert "time" in event
        assert "ghost" not in event

    def test_derive_overrides_and_revalidates(self):
        event_type = simple_type((ParameterSpec("value", "int", required=False),))
        event = Event(event_type, {"time": 4, "source": "s", "value": 1})
        derived = event.derive(value=2)
        assert derived["value"] == 2
        assert event["value"] == 1
        with pytest.raises(EventTypeError):
            event.derive(value="nope")

    def test_derive_to_other_type(self):
        source_type = simple_type()
        target_type = EventType("T_target", base_parameters())
        event = Event(source_type, {"time": 4, "source": "s"})
        derived = event.derive(event_type=target_type)
        assert derived.type_name == "T_target"


class TestParameterSpecProperties:
    @given(
        value=st.one_of(
            st.integers(),
            st.text(max_size=10),
            st.floats(allow_nan=False),
            st.booleans(),
            st.none(),
        ),
        value_type=st.sampled_from(["int", "str", "float", "bool", "any"]),
    )
    @settings(max_examples=200)
    def test_check_accepts_iff_type_matches(self, value, value_type):
        spec = ParameterSpec("p", value_type)
        expected_ok = (
            value is None
            or value_type == "any"
            or (value_type == "int" and isinstance(value, int) and not isinstance(value, bool))
            or (value_type == "str" and isinstance(value, str))
            or (value_type == "float" and isinstance(value, float))
            or (value_type == "bool" and isinstance(value, bool))
        )
        if expected_ok:
            spec.check(value)
        else:
            with pytest.raises(EventTypeError):
                spec.check(value)


class TestAdmitsByColumn:
    """``EventType.admits``: ``True`` only when every event a run's
    covers stand for would pass ``conforms``; ``False`` hands the run
    to the row-wise check."""

    TYPE = simple_type(
        (
            ParameterSpec("count", "int", nullable=False),
            ParameterSpec("label", "str"),
            ParameterSpec("note", "str", required=False),
            ParameterSpec("payload", "any", nullable=False),
        )
    )

    def covers(self, **changes):
        covers = {
            "type": ("T_test",),
            "time": (1, 2),
            "source": ("s",),
            "count": (0,),
            "label": ("a", None),
            "payload": ([], 3.5),
        }
        covers.update(changes)
        return {name: cover for name, cover in covers.items() if cover is not None}

    def test_exact_types_admit_and_an_optional_name_may_lack_a_cover(self):
        assert self.TYPE.admits(self.covers())
        assert self.TYPE.admits(self.covers(note=("n",)))

    @pytest.mark.parametrize(
        "changes",
        [
            {"count": (1, True)},  # a bool offered as int
            {"count": (None,)},  # null where not nullable
            {"payload": ([], None)},  # null in a non-nullable any
            {"label": None},  # a required name without a cover
            {"label": (type("Text", (str,), {})("a"),)},  # a subclass
            {"type": ("T_test", "T_other")},  # another type's name
        ],
    )
    def test_what_the_covers_cannot_tell_goes_row_by_row(self, changes):
        assert not self.TYPE.admits(self.covers(**changes))

    def test_members_run_once_per_distinct_object(self):
        seen = []

        def members(value):
            seen.append(value)
            if (0, 1) in value:
                raise EventTypeError("no")

        kind = simple_type((ParameterSpec("pairs", "set", members=members),))
        good = frozenset({(1, 1)})
        covers = {"type": ("T_test",), "time": (1,), "source": ("s",)}
        assert kind.admits(dict(covers, pairs=(good, good, None)))
        assert seen == [good]
        # Equal but another object: checked too (a custom check may
        # tell ``1`` from ``True`` where ``==`` cannot).
        twin = frozenset({(True, True)})
        assert kind.admits(dict(covers, pairs=(good, twin)))
        assert seen[1:] == [good, twin]
        assert not kind.admits(dict(covers, pairs=(good, frozenset({(0, 1)}))))

    def test_members_off_a_set_parameter_are_never_judged_by_cover(self):
        """An ``INT`` column's cover is one int standing for all of its
        rows, so a ``members`` check anywhere but on a ``set`` parameter
        could not see the values it checks."""
        kind = simple_type((ParameterSpec("size", "any", members=lambda value: None),))
        covers = {"type": ("T_test",), "time": (1,), "source": ("s",), "size": (0,)}
        assert not kind.admits(covers)
