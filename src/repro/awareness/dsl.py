"""The awareness specification language (Section 5).

"AM provides an awareness specification *language* that is used by
awareness designers to construct awareness schemas."  The paper renders
operator applications as ``Eop[p1, ..., pm](T1, ..., Tn)`` — design-time
parameters in brackets, consumed event streams in parentheses.  This
module implements a small textual language using exactly that notation, so
a specification reads like the paper's formulas:

.. code-block:: text

    # The Section 5.4 deadline-violation awareness schema.
    op1 = Filter_context[TaskForceContext, TaskForceDeadline](ContextEvent)
    op2 = Filter_context[InfoRequestContext, RequestDeadline](ContextEvent)
    violation = Compare2[<=](op1, op2)
    deliver violation to InfoRequestContext.Requestor using identity \
        as "Task force deadline moved before your request deadline" \
        named AS_InfoRequest

Statement forms:

* ``name = Family[param, ...](input, ...)`` — place and wire an operator.
  Inputs are window source names (``ContextEvent``, ``ActivityEvent``,
  registered external sources) or previously defined operator names.
  Parameters may be identifiers, quoted strings, integers, ``*`` (a
  wildcard, passed as ``None``), state sets ``{Ready, Running}``, and the
  comparison symbols ``<= < >= > == !=``.
* ``deliver name to Role using assignment as "text" [named AS_Name]`` —
  root the named node with an output operator; ``Role`` is either a global
  role name or ``Context.Role`` for a scoped role.
* ``#`` starts a comment; a trailing backslash continues a line.

Parameter conventions per built-in family (the window supplies ``P``):

* ``Filter_context[context_name, field_name]``
* ``Filter_activity[activity_variable, old_states, new_states]`` — each
  state set is ``{A, B}`` or ``*`` for "any"
* ``Filter_system[metric]`` / ``Filter_system[metric, series_label]`` —
  telemetry samples of one metric; no label means the unlabelled total
  series, ``*`` means any series.  Derived metric names contain brackets
  (``rate[m/w]``), so quote them: ``Filter_system["rate[m/5]"]``
* ``And[copy]`` / ``Seq[copy]`` — optional 1-based copy parameter
  (default 1); the arity is inferred from the input list
* ``Or[]`` / ``Count[]`` — no parameters
* ``Compare1[op, value]`` — e.g. ``Compare1[==, 1]``
* ``Edge[op, value]`` — rising-edge ``Compare1``: passes only when the
  test starts holding, e.g. ``Edge[>, 50]``
* ``Compare2[op]`` — e.g. ``Compare2[<=]``
* ``Translate[invoked_schema, activity_variable]`` — the invoking schema
  is the window's
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
    cast,
)

from ..core.roles import RoleRef
from ..errors import SpecificationError
from .operators.base import EventOperator
from .operators.compare import FLIPPED_BOOL_FUNCS_2, NAMED_BOOL_FUNCS_2
from .schema import AwarenessSchema
from .specification import SpecificationWindow

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

#: One token of a logical line, after the whitespace before it.  Every
#: group but ``error`` is a token kind, and holds its value (a string's
#: without the quotes); ``error`` takes the rest of the line, from the
#: first character no kind reads, for the message.
_TOKEN_PATTERN = re.compile(
    r"""
    \s*
    (?:
      "(?P<string>[^"]*)"
    | (?P<comparison><=|>=|==|!=|<|>)
    | (?P<number>-?\d+)
    | (?P<identifier>[A-Za-z_][\w.\-]*)
    | (?P<symbol>[=\[\](){},*])
    | (?P<error>\S.*)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str
    value: str
    line: int


#: Builds a :class:`Token` from its ``(kind, value, line)`` tuple in C,
#: without the Python-level ``__new__`` a ``Token(...)`` call runs.
_new_token = cast(Callable[[Type[Token], Tuple[str, str, int]], Token], tuple.__new__)


def tokenize(text: str) -> List[Token]:
    """Split the specification text into tokens; comments are stripped and
    backslash continuations joined before scanning.  Each logical line's
    tokens end with a ``newline`` token carrying its first line number."""
    logical_lines: List[Tuple[int, str]] = []
    pending = ""
    pending_start = 1
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            if not pending:
                pending_start = number
            pending += stripped[:-1] + " "
            continue
        if pending:
            logical_lines.append((pending_start, pending + line))
            pending = ""
        elif line.strip():
            logical_lines.append((number, line))
    if pending:
        logical_lines.append((pending_start, pending))

    tokens: List[Token] = []
    scan = _TOKEN_PATTERN.finditer
    for number, line in logical_lines:
        start = len(tokens)
        # Every match ends in one named group (``or`` only narrows the
        # type), whose name is the kind.
        tokens += [
            _new_token(Token, (kind := match.lastgroup or "error", match[kind], number))
            for match in scan(line)
        ]
        # An error match runs to the end of the line, so it is the last.
        if len(tokens) > start and tokens[-1][0] == "error":
            raise SpecificationError(
                f"line {number}: cannot tokenize {tokens[-1][1]!r}"
            )
        tokens.append(_new_token(Token, ("newline", "\n", number)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@dataclass
class _OperatorStatement:
    name: str
    family: str
    parameters: List[Any]
    inputs: List[str]
    line: int


@dataclass
class _DeliverStatement:
    node: str
    role: RoleRef
    assignment: str
    description: str
    schema_name: Optional[str]
    line: int


Statement = Union[_OperatorStatement, _DeliverStatement]


#: The clauses a ``deliver`` statement may carry after its role.
_DELIVER_CLAUSES = frozenset({"using", "as", "named"})


def _expected(wanted: str, token: Token) -> SpecificationError:
    return SpecificationError(
        f"line {token[2]}: expected {wanted!r}, got {token[1]!r}"
    )


class _Parser:
    """The statements of :func:`tokenize`'s tokens, walked by index.

    A statement ends at its line's ``newline`` token, and every rule
    that meets that token early fails on it, so no rule reads past the
    last token; a token list that does not end in one fails as
    ``unexpected end of specification``.
    """

    def __init__(self, tokens: Sequence[Token]) -> None:
        self._tokens = tokens

    def parse(self) -> List[Statement]:
        tokens = self._tokens
        statements: List[Statement] = []
        index = 0
        try:
            while index < len(tokens):
                kind, value, line = tokens[index]
                if kind == "newline":
                    index += 1
                    continue
                if kind != "identifier":
                    raise SpecificationError(f"line {line}: unexpected {value!r}")
                statement: Statement
                if value == "deliver":
                    statement, index = self._deliver(index + 1, line)
                else:
                    statement, index = self._operator(index + 1, value, line)
                statements.append(statement)
        except IndexError:
            raise SpecificationError("unexpected end of specification") from None
        return statements

    # -- name = Family[params](inputs) -----------------------------------------

    def _operator(
        self, index: int, name: str, line: int
    ) -> Tuple[_OperatorStatement, int]:
        tokens = self._tokens
        token = tokens[index]
        if token[0] != "symbol" or token[1] != "=":
            raise _expected("=", token)
        family = tokens[index + 1]
        if family[0] != "identifier":
            raise _expected("identifier", family)
        token = tokens[index + 2]
        if token[0] != "symbol" or token[1] != "[":
            raise _expected("[", token)
        index += 3
        parameters: List[Any] = []
        while True:
            kind, value, at = tokens[index]
            index += 1
            if kind == "symbol":
                if value == "]":
                    break
                if value == "*":
                    parameters.append(None)
                elif value == "{":
                    states, index = self._state_set(index)
                    parameters.append(states)
                else:
                    raise SpecificationError(
                        f"line {at}: invalid parameter {value!r}"
                    )
            elif kind == "number":
                parameters.append(int(value))
            elif kind == "newline":
                raise SpecificationError(f"line {at}: invalid parameter {value!r}")
            else:
                parameters.append(value)
            kind, value, at = tokens[index]
            if kind == "symbol" and value == ",":
                index += 1
        token = tokens[index]
        if token[0] != "symbol" or token[1] != "(":
            raise _expected("(", token)
        index += 1
        inputs: List[str] = []
        while True:
            kind, value, at = tokens[index]
            index += 1
            if kind == "identifier":
                inputs.append(value)
            elif kind != "symbol" or value not in ",)":
                raise SpecificationError(f"line {at}: invalid input {value!r}")
            elif value == ")":
                break
        token = tokens[index]
        if token[0] != "newline":
            raise _expected("newline", token)
        statement = _OperatorStatement(name, family[1], parameters, inputs, line)
        return statement, index + 1

    def _state_set(self, index: int) -> Tuple[FrozenSet[str], int]:
        tokens = self._tokens
        values: List[str] = []
        while True:
            kind, value, at = tokens[index]
            index += 1
            if kind == "identifier":
                values.append(value)
            elif kind != "symbol" or value not in ",}":
                raise SpecificationError(
                    f"line {at}: invalid state set element {value!r}"
                )
            elif value == "}":
                return frozenset(values), index

    # -- deliver ... -------------------------------------------------------------

    def _deliver(self, index: int, line: int) -> Tuple[_DeliverStatement, int]:
        tokens = self._tokens
        node = tokens[index]
        if node[0] != "identifier":
            raise _expected("identifier", node)
        token = tokens[index + 1]
        if token[0] != "identifier":
            raise _expected("identifier", token)
        if token[1] != "to":
            raise _expected("to", token)
        token = tokens[index + 2]
        if token[0] != "identifier":
            raise _expected("identifier", token)
        index += 3
        role = token[1]
        if "." in role:
            context_name, __, role_name = role.partition(".")
            if not context_name or not role_name:
                raise SpecificationError(
                    f"line {token[2]}: malformed role {role!r}"
                )
            delivery_role = RoleRef(role_name, context_name)
        else:
            delivery_role = RoleRef(role)
        assignment = "identity"
        description = ""
        schema_name: Optional[str] = None
        while True:
            word = tokens[index]
            if word[0] == "newline":
                break
            if word[0] != "identifier":
                raise _expected("identifier", word)
            argument = tokens[index + 1]
            wanted = "string" if word[1] == "as" else "identifier"
            if word[1] not in _DELIVER_CLAUSES:
                raise SpecificationError(
                    f"line {word[2]}: unexpected {word[1]!r} in deliver"
                )
            if argument[0] != wanted:
                raise _expected(wanted, argument)
            if word[1] == "using":
                assignment = argument[1]
            elif word[1] == "as":
                description = argument[1]
            else:
                schema_name = argument[1]
            index += 2
        statement = _DeliverStatement(
            node[1], delivery_role, assignment, description, schema_name, line
        )
        return statement, index + 1


# ---------------------------------------------------------------------------
# Compilation onto a specification window
# ---------------------------------------------------------------------------


def _build_operator(
    window: SpecificationWindow, statement: _OperatorStatement
) -> EventOperator:
    """Translate the parameter conventions per family and place the op."""
    family = statement.family
    params = statement.parameters
    arity = len(statement.inputs)

    def fail(message: str) -> SpecificationError:
        return SpecificationError(f"line {statement.line}: {message}")

    if family in ("Filter_context",):
        # Paper notation allows the explicit process schema as the first
        # parameter — Filter_context[P, Cname, Fname] — which is how a
        # filter over an *invoked* process schema feeds a Translate.
        if len(params) == 3:
            from .operators.filters import ContextFilter

            return window.place_operator(
                ContextFilter(
                    params[0], params[1], params[2],
                    instance_name=statement.name,
                )
            )
        if len(params) != 2:
            raise fail(
                "Filter_context takes [context_name, field_name] or "
                "[P, context_name, field_name]"
            )
        return window.place(
            family, params[0], params[1], instance_name=statement.name
        )
    if family == "Filter_system":
        if not params or len(params) > 2 or not isinstance(params[0], str):
            raise fail(
                "Filter_system takes [metric] or [metric, series_label] "
                "(series label * matches any series)"
            )
        from .operators.filters import SystemFilter

        label: Optional[str] = None
        if len(params) == 2:
            if params[1] is None:
                label = SystemFilter.ANY_SERIES
            elif isinstance(params[1], str):
                label = params[1]
            else:
                raise fail("Filter_system series label must be a name or *")
        return window.place(
            family, params[0], label, instance_name=statement.name
        )
    if family == "Filter_activity":
        if len(params) == 4:
            from .operators.filters import ActivityFilter

            return window.place_operator(
                ActivityFilter(
                    params[0], params[1], params[2], params[3],
                    instance_name=statement.name,
                )
            )
        if len(params) != 3:
            raise fail(
                "Filter_activity takes [activity_variable, old_states, "
                "new_states] or [P, activity_variable, old_states, new_states]"
            )
        return window.place(
            family, params[0], params[1], params[2],
            instance_name=statement.name,
        )
    if family in ("And", "Seq"):
        if len(params) > 1:
            raise fail(f"{family} takes an optional [copy] parameter")
        copy = params[0] if params else 1
        if not isinstance(copy, int):
            raise fail(f"{family} copy parameter must be an integer")
        if arity < 2:
            raise fail(f"{family} needs at least two inputs")
        return window.place(
            family, copy=copy, arity=arity, instance_name=statement.name
        )
    if family == "Or":
        if params:
            raise fail("Or takes no parameters")
        if arity < 2:
            raise fail("Or needs at least two inputs")
        return window.place(family, arity=arity, instance_name=statement.name)
    if family == "Count":
        if params:
            raise fail("Count takes no parameters")
        return window.place(family, instance_name=statement.name)
    if family in ("Compare1", "Edge"):
        if len(params) != 2 or params[0] not in NAMED_BOOL_FUNCS_2:
            raise fail(f"{family} takes [comparison, integer], e.g. [==, 1]")
        threshold = params[1]
        if not isinstance(threshold, int):
            raise fail(f"{family} threshold must be an integer")
        # ``value <op> threshold`` as one C call: the comparison with
        # its operands swapped and the threshold bound.
        operator = window.place(
            family,
            partial(FLIPPED_BOOL_FUNCS_2[params[0]], threshold),
            instance_name=statement.name,
        )
        # Stash the textual form so window_to_dsl can decompile it.
        operator._dsl_rendering = (  # type: ignore[attr-defined]
            f"{family}[{params[0]}, {threshold}]"
        )
        return operator
    if family == "Compare2":
        if len(params) != 1 or params[0] not in NAMED_BOOL_FUNCS_2:
            raise fail("Compare2 takes [comparison], e.g. [<=]")
        return window.place(family, params[0], instance_name=statement.name)
    if family == "Translate":
        if len(params) != 2:
            raise fail("Translate takes [invoked_schema, activity_variable]")
        return window.place(
            family, params[0], params[1], instance_name=statement.name
        )
    raise fail(f"unknown operator family {family!r}")


def compile_specification(
    window: SpecificationWindow, text: str
) -> Tuple[AwarenessSchema, ...]:
    """Compile DSL *text* onto *window*; returns the delivered schemas.

    Operator statements place and wire operators; ``deliver`` statements
    root them with output operators.  Names are single-assignment;
    forward references are errors (the language is declarative but reads
    top-down, like the paper's formula sequences).
    """
    statements = _Parser(tokenize(text)).parse()
    nodes: Dict[str, Any] = {}
    schemas: List[AwarenessSchema] = []
    for statement in statements:
        if isinstance(statement, _OperatorStatement):
            if statement.name in nodes:
                raise SpecificationError(
                    f"line {statement.line}: {statement.name!r} is already "
                    f"defined"
                )
            operator = _build_operator(window, statement)
            for slot, input_name in enumerate(statement.inputs):
                source = nodes.get(input_name)
                if source is None:
                    try:
                        source = window.source(input_name)
                    except SpecificationError:
                        raise SpecificationError(
                            f"line {statement.line}: unknown input "
                            f"{input_name!r}"
                        ) from None
                window.connect(source, operator, slot)
            nodes[statement.name] = operator
        else:
            source = nodes.get(statement.node)
            if source is None:
                raise SpecificationError(
                    f"line {statement.line}: deliver references unknown "
                    f"operator {statement.node!r}"
                )
            schemas.append(
                window.output(
                    source,
                    delivery_role=statement.role,
                    assignment_name=statement.assignment,
                    user_description=statement.description,
                    schema_name=statement.schema_name,
                )
            )
    if not schemas:
        raise SpecificationError(
            "specification defines no `deliver` statement; nothing would "
            "ever reach a participant"
        )
    return tuple(schemas)


# ---------------------------------------------------------------------------
# Decompilation: window -> DSL text (spec persistence)
# ---------------------------------------------------------------------------


def _render_state_set(states: Optional[FrozenSet[str]]) -> str:
    if states is None:
        return "*"
    return "{" + ", ".join(sorted(states)) + "}"


_IDENTIFIER = re.compile(r"[A-Za-z_][\w.\-]*\Z")


def _render_system_param(value: str) -> str:
    """Quote metric/series names the tokenizer cannot read bare (e.g.
    derived names like ``rate[m/5]``)."""
    if _IDENTIFIER.match(value):
        return value
    return f'"{value}"'


def _render_operator(operator: EventOperator, window: SpecificationWindow) -> str:
    """Render one operator statement in the paper's bracket notation."""
    from .operators.compare import NAMED_BOOL_FUNCS_2
    from .operators.count import Count
    from .operators.compare import Compare1, Compare2, Edge
    from .operators.filters import ActivityFilter, ContextFilter, SystemFilter
    from .operators.generic import And, Or, Seq
    from .operators.translate import Translate

    if isinstance(operator, SystemFilter):
        params = [_render_system_param(operator.metric)]
        if operator.series_label == SystemFilter.ANY_SERIES:
            params.append("*")
        elif operator.series_label is not None:
            params.append(_render_system_param(operator.series_label))
        return f"Filter_system[{', '.join(params)}]"
    if isinstance(operator, ContextFilter):
        params = [operator.context_name, operator.field_name]
        if operator.process_schema_id != window.process_schema_id:
            params.insert(0, operator.process_schema_id)
        return f"Filter_context[{', '.join(params)}]"
    if isinstance(operator, ActivityFilter):
        params = [
            operator.activity_variable,
            _render_state_set(operator.states_old),
            _render_state_set(operator.states_new),
        ]
        if operator.process_schema_id != window.process_schema_id:
            params.insert(0, operator.process_schema_id)
        return f"Filter_activity[{', '.join(params)}]"
    if isinstance(operator, (And, Seq)):
        return f"{operator.family}[{operator.copy}]"
    if isinstance(operator, Or):
        return "Or[]"
    if isinstance(operator, Count):
        return "Count[]"
    if isinstance(operator, Compare2):
        symbol = next(
            (s for s, f in NAMED_BOOL_FUNCS_2.items() if f is operator.bool_func),
            None,
        )
        if symbol is None:
            raise SpecificationError(
                f"operator {operator.instance_name!r} uses an unnamed "
                f"comparison; only named comparisons decompile to DSL"
            )
        return f"Compare2[{symbol}]"
    if isinstance(operator, (Compare1, Edge)):
        rendering = getattr(operator, "_dsl_rendering", None)
        if rendering is None:
            raise SpecificationError(
                f"operator {operator.instance_name!r} carries an arbitrary "
                f"boolFunc1; only DSL-authored {operator.family} decompiles"
            )
        return rendering
    if isinstance(operator, Translate):
        return (
            f"Translate[{operator.invoked_schema_id}, "
            f"{operator.activity_variable}]"
        )
    raise SpecificationError(
        f"operator family {operator.family!r} has no DSL rendering"
    )


def window_to_dsl(window: SpecificationWindow) -> str:
    """Decompile *window* into DSL text that recompiles to an equivalent
    window (built-in operator families only).

    Together with :func:`compile_specification` this makes the DSL the
    persistence format for awareness specifications: author, save the
    text, reload on the next system boot.
    """
    from .operators.output import Output

    graph = window.graph
    source_names: Dict[int, str] = {}
    for name in ("ActivityEvent", "ContextEvent"):
        try:
            source_names[id(window.source(name))] = name
        except SpecificationError:
            pass
    for name, producer in list(window._sources.items()):
        source_names.setdefault(id(producer), name)

    # Emit operators in wiring (dependency) order; edges were added in
    # topological order by construction, but operators may have been
    # placed early — order by "all inputs already named".  Within each
    # wave, operators are sorted by instance name (then family), so the
    # decompiled text is a *canonical* ordering: two windows that are
    # structurally equal decompile identically regardless of placement
    # order, and plan-cache keys computed over re-authored windows
    # reproduce.
    operator_names: Dict[int, str] = {}
    lines: List[str] = []
    pending = [
        op for op in graph.operators() if not isinstance(op, Output)
    ]
    used_names: Set[str] = set()
    while pending:
        ready = [
            operator
            for operator in pending
            if all(
                id(source) in source_names or id(source) in operator_names
                for source, __ in graph.upstream(operator)
            )
        ]
        if not ready:
            raise SpecificationError(
                "window contains operators with unwired inputs; validate() "
                "it before decompiling"
            )
        ready.sort(key=lambda op: (op.instance_name, op.family))
        ready_ids = {id(operator) for operator in ready}
        for operator in ready:
            upstream = graph.upstream(operator)
            name = operator.instance_name
            if not re.fullmatch(r"[A-Za-z_][\w.\-]*", name) or name in used_names:
                name = f"node{len(operator_names) + 1}"
            used_names.add(name)
            operator_names[id(operator)] = name
            inputs = [""] * operator.arity
            for source, slot in upstream:
                inputs[slot] = (
                    source_names.get(id(source))
                    or operator_names[id(source)]
                )
            lines.append(
                f"{name} = {_render_operator(operator, window)}"
                f"({', '.join(inputs)})"
            )
        pending = [
            operator for operator in pending if id(operator) not in ready_ids
        ]

    for schema in window.schemas():
        root = schema.description.root
        upstream = graph.upstream(root)
        source, __ = upstream[0]
        source_name = operator_names.get(id(source)) or source_names[id(source)]
        line = f"deliver {source_name} to {schema.delivery_role}"
        if schema.assignment_name != "identity":
            line += f" using {schema.assignment_name}"
        if schema.output.user_description:
            line += f' as "{schema.output.user_description}"'
        line += f" named {schema.name}"
        lines.append(line)
    return "\n".join(lines) + "\n"
