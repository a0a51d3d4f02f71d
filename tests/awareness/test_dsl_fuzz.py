"""Fuzz tests for the DSL: generated specs always round-trip cleanly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.awareness.detector import DetectorAgent
from repro.awareness.dsl import compile_specification, window_to_dsl
from repro.awareness.planner import PlanCache
from repro.awareness.specification import SpecificationWindow
from repro.core.context import ContextChange
from repro.events.producers import ActivityEventProducer, ContextEventProducer


def make_window():
    return SpecificationWindow(
        "P-F",
        {
            "ActivityEvent": ActivityEventProducer(),
            "ContextEvent": ContextEventProducer(),
        },
    )


def close_specification(lines, nodes, role="owners", schema_name="AS_Fuzz"):
    """Root the operator *lines* under one deliver statement.

    Every operator must contribute to the delivered schema (the window
    validator rejects dangling boxes), so all sinks are merged with an Or.
    """
    lines = list(lines)
    consumed = set()
    for line in lines:
        args = line[line.rindex("(") + 1 : line.rindex(")")]
        for token in args.split(","):
            consumed.add(token.strip())
    sinks = [node for node in nodes if node not in consumed]
    if len(sinks) > 1:
        lines.append(f"root = Or[]({', '.join(sinks)})")
        root = "root"
    else:
        root = sinks[0]
    lines.append(f'deliver {root} to {role} as "generated" named {schema_name}')
    return "\n".join(lines) + "\n"


@st.composite
def random_operator_lines(draw):
    """Generate the operator statements of a random, *valid* DSL
    specification, and the node names they define, in order.

    A layered construction: a layer of context filters over distinct
    fields (and sometimes an activity filter), then random combinator
    layers consuming earlier nodes.
    """
    n_filters = draw(st.integers(min_value=1, max_value=4))
    lines = []
    nodes = []
    for index in range(n_filters):
        name = f"f{index}"
        lines.append(f"{name} = Filter_context[Ctx, field{index}](ContextEvent)")
        nodes.append(name)
    if draw(st.booleans()):
        states = draw(st.sampled_from(["*", "{Running}", "{Running, Completed}"]))
        lines.append(f"a0 = Filter_activity[work, *, {states}](ActivityEvent)")
        nodes.append("a0")

    n_layers = draw(st.integers(min_value=0, max_value=4))
    for layer in range(n_layers):
        kind = draw(
            st.sampled_from(
                ["And", "Seq", "Or", "Count", "Compare1", "Edge", "Compare2"]
            )
        )
        name = f"n{layer}"
        if kind in ("And", "Seq", "Or"):
            upper = min(3, len(nodes)) if len(nodes) >= 2 else 2
            arity = draw(st.integers(min_value=2, max_value=upper))
            if len(nodes) < 2:
                continue
            inputs = draw(
                st.lists(
                    st.sampled_from(nodes),
                    min_size=arity,
                    max_size=arity,
                    unique=False,
                )
            )
            # A node may not feed two slots of the same operator twice in
            # a way that creates... actually duplicate sources on distinct
            # slots are fine; just build it.
            params = ""
            if kind in ("And", "Seq"):
                copy = draw(st.integers(min_value=1, max_value=arity))
                params = str(copy)
            lines.append(f"{name} = {kind}[{params}]({', '.join(inputs)})")
        elif kind == "Count":
            source = draw(st.sampled_from(nodes))
            lines.append(f"{name} = Count[]({source})")
        elif kind in ("Compare1", "Edge"):
            source = draw(st.sampled_from(nodes))
            symbol = draw(st.sampled_from(["<=", "<", ">=", ">", "==", "!="]))
            threshold = draw(st.integers(min_value=-5, max_value=5))
            lines.append(f"{name} = {kind}[{symbol}, {threshold}]({source})")
        else:  # Compare2
            if len(nodes) < 2:
                continue
            a = draw(st.sampled_from(nodes))
            b = draw(st.sampled_from(nodes))
            symbol = draw(st.sampled_from(["<=", "<", ">=", ">", "==", "!="]))
            lines.append(f"{name} = Compare2[{symbol}]({a}, {b})")
        nodes.append(name)

    return lines, nodes


@st.composite
def random_specs(draw):
    """Generate a random, *valid* DSL specification."""
    lines, nodes = draw(random_operator_lines())
    role = "Ctx.owner" if draw(st.booleans()) else "owners"
    return close_specification(lines, nodes, role)


#: (field index, value) per tick, fed as changes of one context instance.
field_changes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-5, max_value=5),
    ),
    max_size=15,
)


def produce(window, tick, field_index, value):
    window.source("ContextEvent").produce(
        ContextChange(
            time=tick,
            context_id="c1",
            context_name="Ctx",
            associations=frozenset({("P-F", "i1")}),
            field_name=f"field{field_index}",
            old_value=None,
            new_value=value,
        )
    )


class TestDslFuzz:
    @given(spec=random_specs())
    @settings(max_examples=80, deadline=None)
    def test_generated_specs_compile_and_roundtrip(self, spec):
        window_a = make_window()
        compile_specification(window_a, spec)
        window_a.validate()
        text = window_to_dsl(window_a)

        window_b = make_window()
        compile_specification(window_b, text)
        window_b.validate()
        # Round-trip fixpoint: decompiling again yields identical text.
        assert window_to_dsl(window_b) == text
        # Structure preserved.
        assert len(window_a.operators()) == len(window_b.operators())
        assert (
            window_a.schema("AS_Fuzz").description.depth()
            == window_b.schema("AS_Fuzz").description.depth()
        )

    @given(spec=random_specs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_compiled_and_recompiled_windows_detect_identically(
        self, spec, data
    ):
        """Drive the same event stream through the original and the
        round-tripped window; detection streams must match exactly."""
        windows = []
        for __ in range(2):
            window = make_window()
            compile_specification(
                window, spec if not windows else window_to_dsl(windows[0])
            )
            windows.append(window)

        detected = [[], []]
        for index, window in enumerate(windows):
            DetectorAgent(window, PlanCache(), sink=detected[index].append)

        events = data.draw(field_changes)
        for tick, (field_index, value) in enumerate(events, start=1):
            for window in windows:
                produce(window, tick, field_index, value)
        # The canonical decompile deliberately reorders commutative
        # operator definitions (PR 4's within-wave sort), which can change
        # consumer registration order and therefore the *intra-tick*
        # interleaving of detections on diamond-shaped DAGs.  The
        # equivalence contract is the per-tick multiset of detections,
        # not their intra-tick order.
        def per_tick(stream):
            out = {}
            for event in stream:
                out.setdefault(event.time, []).append(
                    repr(event.get("intInfo"))
                )
            return {time: sorted(infos) for time, infos in out.items()}

        assert len(detected[0]) == len(detected[1])
        assert per_tick(detected[0]) == per_tick(detected[1])

    @given(spec=random_specs(), events=field_changes, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_deploy_time_does_not_matter(self, spec, events, data):
        """Authoring is inert: a window authored before a prefix of the
        stream and deployed after it detects exactly what the same
        specification authored after the prefix detects."""
        cut = data.draw(st.integers(min_value=0, max_value=len(events)))
        detected = {}
        for authored_early in (True, False):
            window = make_window()
            if authored_early:
                compile_specification(window, spec)
            for tick, change in enumerate(events[:cut], start=1):
                produce(window, tick, *change)
            if not authored_early:
                compile_specification(window, spec)
            for operator in window.operators():
                assert operator.consumed == 0
                assert not operator._partitions
            seen = detected[authored_early] = []
            DetectorAgent(window, PlanCache(), sink=seen.append)
            for tick, change in enumerate(events[cut:], start=cut + 1):
                produce(window, tick, *change)
        assert [dict(event.params) for event in detected[True]] == [
            dict(event.params) for event in detected[False]
        ]
