"""Tests for the awareness specification language (Section 5)."""

import pytest

from repro.awareness.detector import DetectorAgent
from repro.awareness.dsl import compile_specification, tokenize
from repro.awareness.planner import PlanCache
from repro.awareness.specification import SpecificationWindow
from repro.core.roles import RoleRef
from repro.errors import SpecificationError
from repro.events.producers import ActivityEventProducer, ContextEventProducer

SECTION_54_SPEC = """
# The Section 5.4 deadline-violation awareness schema.
op1 = Filter_context[TaskForceContext, TaskForceDeadline](ContextEvent)
op2 = Filter_context[InfoRequestContext, RequestDeadline](ContextEvent)
violation = Compare2[<=](op1, op2)
deliver violation to InfoRequestContext.Requestor using identity \\
    as "Task force deadline moved before your request deadline" \\
    named AS_InfoRequest
"""


def make_window(process_schema_id="P-InfoRequest"):
    return SpecificationWindow(
        process_schema_id,
        {
            "ActivityEvent": ActivityEventProducer(),
            "ContextEvent": ContextEventProducer(),
        },
    )


class TestTokenizer:
    def test_comments_stripped(self):
        tokens = tokenize("a = Count[](b)  # trailing comment\n# full line\n")
        assert all(t.value != "#" for t in tokens)

    def test_line_continuation_joins(self):
        tokens = tokenize("deliver x to r \\\n  using identity\n")
        values = [t.value for t in tokens if t.kind != "newline"]
        assert values == ["deliver", "x", "to", "r", "using", "identity"]

    def test_strings_and_comparisons(self):
        tokens = tokenize('x = Compare2[<=](a, b)\ny = Compare1[==, 1](x)\n')
        kinds = {t.value: t.kind for t in tokens}
        assert kinds["<="] == "comparison"
        assert kinds["=="] == "comparison"

    def test_unknown_character_rejected(self):
        with pytest.raises(SpecificationError):
            tokenize("a = b $ c\n")

    def test_line_numbers_reported(self):
        with pytest.raises(SpecificationError, match="line 3"):
            tokenize("a = Count[](x)\nb = Count[](a)\nc = %\n")


class TestSection54:
    def test_compiles_to_the_paper_schema(self):
        window = make_window()
        schemas = compile_specification(window, SECTION_54_SPEC)
        assert len(schemas) == 1
        schema = schemas[0]
        assert schema.name == "AS_InfoRequest"
        assert schema.delivery_role == RoleRef("Requestor", "InfoRequestContext")
        assert schema.assignment_name == "identity"
        assert schema.description.depth() == 3
        window.validate()

    def test_compiled_schema_detects(self):
        """Events pushed through the compiled DAG behave like the
        hand-built Section 5.4 schema."""
        window = make_window()
        compile_specification(window, SECTION_54_SPEC)
        detected = []
        DetectorAgent(window, PlanCache(), sink=detected.append)
        producer = window.source("ContextEvent")
        from repro.core.context import ContextChange

        def change(context_name, field, value, time):
            producer.produce(
                ContextChange(
                    time=time,
                    context_id=f"ctx-{context_name}",
                    context_name=context_name,
                    associations=frozenset({("P-InfoRequest", "ir-1")}),
                    field_name=field,
                    old_value=None,
                    new_value=value,
                )
            )

        change("InfoRequestContext", "RequestDeadline", 80, 1)
        change("TaskForceContext", "TaskForceDeadline", 100, 2)  # no violation
        assert detected == []
        change("TaskForceContext", "TaskForceDeadline", 50, 3)  # violation
        assert len(detected) == 1


class TestOperatorFamilies:
    def test_activity_filter_with_wildcards_and_state_sets(self):
        window = make_window()
        schemas = compile_specification(
            window,
            """
            done = Filter_activity[gather, *, {Completed, Terminated}](ActivityEvent)
            deliver done to Requestor
            """,
        )
        operator = window.schemas()[0].description.operators()
        flt = next(o for o in operator if o.family == "Filter_activity")
        assert flt.states_old is None
        assert flt.states_new == frozenset({"Completed", "Terminated"})

    def test_and_or_seq_count_compare1(self):
        window = make_window()
        compile_specification(
            window,
            """
            a = Filter_context[C, f1](ContextEvent)
            b = Filter_context[C, f2](ContextEvent)
            c = Filter_context[C, f3](ContextEvent)
            any = Or[](a, b, c)
            n = Count[](any)
            enough = Compare1[>=, 3](n)
            pair = And[2](enough, a)
            ordered = Seq[1](a, b)
            both = Or[](pair, ordered)
            deliver both to C.owner as "three changes seen"
            """,
        )
        window.validate()
        operators = {o.instance_name: o for o in window.operators()}
        assert operators["any"].arity == 3
        assert operators["pair"].copy == 2
        assert operators["ordered"].family == "Seq"

    def test_translate(self):
        window = make_window("P-TaskForce")
        compile_specification(
            window,
            """
            inner = Filter_context[P-InfoRequest, InfoRequestContext, RequestDeadline](ContextEvent)
            lifted = Translate[P-InfoRequest, inforequest1](ActivityEvent, inner)
            deliver lifted to leader
            """,
        )
        translate = next(
            o for o in window.operators() if o.family == "Translate"
        )
        assert translate.invoked_schema_id == "P-InfoRequest"
        assert translate.activity_variable == "inforequest1"

    def test_compare1_threshold_logic(self):
        window = make_window()
        compile_specification(
            window,
            """
            a = Filter_context[C, f](ContextEvent)
            n = Count[](a)
            third = Compare1[==, 3](n)
            deliver third to owner
            """,
        )
        operator = next(
            o for o in window.operators() if o.family == "Compare1"
        )
        assert operator.bool_func(3)
        assert not operator.bool_func(2)


class TestErrors:
    def test_missing_deliver_rejected(self):
        window = make_window()
        with pytest.raises(SpecificationError, match="deliver"):
            compile_specification(
                window, "a = Filter_context[C, f](ContextEvent)\n"
            )

    def test_unknown_input(self):
        window = make_window()
        with pytest.raises(SpecificationError, match="unknown input"):
            compile_specification(
                window, "a = Count[](ghost)\ndeliver a to r\n"
            )

    def test_forward_reference_rejected(self):
        window = make_window()
        with pytest.raises(SpecificationError, match="unknown input"):
            compile_specification(
                window,
                "a = Count[](b)\nb = Filter_context[C, f](ContextEvent)\n"
                "deliver a to r\n",
            )

    def test_duplicate_name_rejected(self):
        window = make_window()
        with pytest.raises(SpecificationError, match="already defined"):
            compile_specification(
                window,
                "a = Filter_context[C, f](ContextEvent)\n"
                "a = Count[](a)\ndeliver a to r\n",
            )

    def test_deliver_unknown_operator(self):
        window = make_window()
        with pytest.raises(SpecificationError, match="unknown operator"):
            compile_specification(window, "deliver ghost to r\n")

    def test_wrong_parameter_count(self):
        window = make_window()
        with pytest.raises(SpecificationError, match="Filter_context takes"):
            compile_specification(
                window, "a = Filter_context[C](ContextEvent)\ndeliver a to r\n"
            )

    def test_unknown_family(self):
        window = make_window()
        with pytest.raises(SpecificationError, match="unknown operator family"):
            compile_specification(
                window, "a = Magic[](ContextEvent)\ndeliver a to r\n"
            )

    def test_bad_compare2_symbol(self):
        window = make_window()
        with pytest.raises(SpecificationError, match="Compare2 takes"):
            compile_specification(
                window,
                "a = Filter_context[C, f](ContextEvent)\n"
                "b = Filter_context[C, g](ContextEvent)\n"
                "x = Compare2[almost](a, b)\ndeliver x to r\n",
            )

    def test_malformed_role(self):
        window = make_window()
        with pytest.raises(SpecificationError):
            compile_specification(
                window,
                "a = Filter_context[C, f](ContextEvent)\n"
                "deliver a to Ctx.\n",
            )

    def test_and_requires_two_inputs(self):
        window = make_window()
        with pytest.raises(SpecificationError, match="at least two"):
            compile_specification(
                window,
                "a = Filter_context[C, f](ContextEvent)\n"
                "x = And[](a)\ndeliver x to r\n",
            )


class TestEndToEndWithSystem:
    def test_dsl_deployed_on_live_system(self, system, alice, bob, epidemiologists):
        """Author AS_InfoRequest via the DSL instead of the builder API,
        then run the Section 5.4 scenario against it."""
        from repro.workloads.taskforce import TaskForceApplication

        app = TaskForceApplication(system)
        window = system.awareness.create_window(
            app.info_request_schema.schema_id
        )
        compile_specification(window, SECTION_54_SPEC)
        system.awareness.deploy(window)

        task_force = app.create_task_force(alice, [alice, bob], 100)
        app.request_information(task_force, bob, 80)
        app.change_task_force_deadline(task_force, 50)
        assert len(system.participant_client(bob).check_awareness()) == 1
        assert system.participant_client(alice).check_awareness() == ()
