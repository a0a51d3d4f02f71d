"""The DSL front end against the scan-and-walk one it replaced.

:func:`~repro.awareness.dsl.tokenize` scans each logical line with one
compiled pattern and the parser walks the token list by index.  The
reference below is the earlier front end, kept here and nowhere in
``src/``: a frozen-dataclass token per ``match`` and a parser calling
``_peek`` / ``_next`` / ``_expect`` once per token.  Over the fuzz
suite's generated specifications, corrupted copies of them and short
texts of the grammar's symbols and keywords, both must give the same
tokens, the same statements (family, parameters, inputs, role, line)
and, where a text is refused, the same :class:`SpecificationError`
message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.awareness.dsl import _Parser, tokenize
from repro.core.roles import RoleRef
from repro.errors import SpecificationError

from .test_dsl_fuzz import random_specs

# ---------------------------------------------------------------------------
# The reference front end
# ---------------------------------------------------------------------------

_TOKEN_PATTERN = re.compile(
    r"""
    (?P<string>"[^"]*")
  | (?P<comparison><=|>=|==|!=|<|>)
  | (?P<number>-?\d+)
  | (?P<identifier>[A-Za-z_][\w.\-]*)
  | (?P<symbol>[=\[\](){},*])
  | (?P<whitespace>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class ReferenceToken:
    kind: str
    value: str
    line: int


def reference_tokenize(text: str) -> List[ReferenceToken]:
    """Split the specification text into tokens; comments are stripped and
    backslash continuations joined before scanning."""
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

    tokens: List[ReferenceToken] = []
    for number, line in logical_lines:
        position = 0
        while position < len(line):
            match = _TOKEN_PATTERN.match(line, position)
            if match is None:
                raise SpecificationError(
                    f"line {number}: cannot tokenize {line[position:]!r}"
                )
            position = match.end()
            kind = match.lastgroup
            if kind == "whitespace":
                continue
            value = match.group()
            if kind == "string":
                value = value[1:-1]
            tokens.append(ReferenceToken(kind, value, number))
        tokens.append(ReferenceToken("newline", "\n", number))
    return tokens


@dataclass
class ReferenceOperator:
    name: str
    family: str
    parameters: List[Any]
    inputs: List[str]
    line: int


@dataclass
class ReferenceDeliver:
    node: str
    role: RoleRef
    assignment: str
    description: str
    schema_name: Optional[str]
    line: int


ReferenceStatement = Union[ReferenceOperator, ReferenceDeliver]


class ReferenceParser:
    def __init__(self, tokens: List[ReferenceToken]) -> None:
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> Optional[ReferenceToken]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> ReferenceToken:
        token = self._peek()
        if token is None:
            raise SpecificationError("unexpected end of specification")
        self._index += 1
        return token

    def _expect(self, kind: str, value: Optional[str] = None) -> ReferenceToken:
        token = self._next()
        if token.kind != kind or (value is not None and token.value != value):
            wanted = value if value is not None else kind
            raise SpecificationError(
                f"line {token.line}: expected {wanted!r}, got {token.value!r}"
            )
        return token

    def _skip_newlines(self) -> None:
        while (token := self._peek()) is not None and token.kind == "newline":
            self._index += 1

    def parse(self) -> List[ReferenceStatement]:
        statements: List[ReferenceStatement] = []
        self._skip_newlines()
        while self._peek() is not None:
            token = self._peek()
            assert token is not None
            if token.kind == "identifier" and token.value == "deliver":
                statements.append(self._parse_deliver())
            elif token.kind == "identifier":
                statements.append(self._parse_operator())
            else:
                raise SpecificationError(
                    f"line {token.line}: unexpected {token.value!r}"
                )
            self._skip_newlines()
        return statements

    # -- name = Family[params](inputs) -----------------------------------------

    def _parse_operator(self) -> ReferenceOperator:
        name_token = self._expect("identifier")
        self._expect("symbol", "=")
        family_token = self._expect("identifier")
        parameters = self._parse_parameters()
        inputs = self._parse_inputs()
        self._expect("newline")
        return ReferenceOperator(
            name=name_token.value,
            family=family_token.value,
            parameters=parameters,
            inputs=inputs,
            line=name_token.line,
        )

    def _parse_parameters(self) -> List[Any]:
        self._expect("symbol", "[")
        parameters: List[Any] = []
        while True:
            token = self._peek()
            if token is None:
                raise SpecificationError("unterminated parameter list")
            if token.kind == "symbol" and token.value == "]":
                self._next()
                return parameters
            parameters.append(self._parse_parameter_value())
            token = self._peek()
            if token is not None and token.kind == "symbol" and token.value == ",":
                self._next()

    def _parse_parameter_value(self) -> Any:
        token = self._next()
        if token.kind == "symbol" and token.value == "*":
            return None
        if token.kind == "symbol" and token.value == "{":
            return self._parse_state_set()
        if token.kind == "number":
            return int(token.value)
        if token.kind in ("identifier", "string", "comparison"):
            return token.value
        raise SpecificationError(
            f"line {token.line}: invalid parameter {token.value!r}"
        )

    def _parse_state_set(self) -> frozenset:
        values = []
        while True:
            token = self._next()
            if token.kind == "symbol" and token.value == "}":
                return frozenset(values)
            if token.kind == "symbol" and token.value == ",":
                continue
            if token.kind == "identifier":
                values.append(token.value)
                continue
            raise SpecificationError(
                f"line {token.line}: invalid state set element {token.value!r}"
            )

    def _parse_inputs(self) -> List[str]:
        self._expect("symbol", "(")
        inputs: List[str] = []
        while True:
            token = self._next()
            if token.kind == "symbol" and token.value == ")":
                return inputs
            if token.kind == "symbol" and token.value == ",":
                continue
            if token.kind == "identifier":
                inputs.append(token.value)
                continue
            raise SpecificationError(
                f"line {token.line}: invalid input {token.value!r}"
            )

    # -- deliver ... -------------------------------------------------------------

    def _parse_deliver(self) -> ReferenceDeliver:
        keyword = self._expect("identifier")  # 'deliver'
        node = self._expect("identifier").value
        self._expect_keyword("to")
        role = self._parse_role()
        assignment = "identity"
        description = ""
        schema_name: Optional[str] = None
        while (token := self._peek()) is not None and token.kind != "newline":
            word = self._expect("identifier").value
            if word == "using":
                assignment = self._expect("identifier").value
            elif word == "as":
                description = self._expect("string").value
            elif word == "named":
                schema_name = self._expect("identifier").value
            else:
                raise SpecificationError(
                    f"line {token.line}: unexpected {word!r} in deliver"
                )
        self._expect("newline")
        return ReferenceDeliver(
            node=node,
            role=role,
            assignment=assignment,
            description=description,
            schema_name=schema_name,
            line=keyword.line,
        )

    def _expect_keyword(self, word: str) -> None:
        token = self._expect("identifier")
        if token.value != word:
            raise SpecificationError(
                f"line {token.line}: expected {word!r}, got {token.value!r}"
            )

    def _parse_role(self) -> RoleRef:
        token = self._expect("identifier")
        if "." in token.value:
            context_name, __, role_name = token.value.partition(".")
            if not context_name or not role_name:
                raise SpecificationError(
                    f"line {token.line}: malformed role {token.value!r}"
                )
            return RoleRef(role_name, context_name)
        return RoleRef(token.value)


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------


def outcome(scan: Any, parser: Any, text: str) -> Tuple[Any, ...]:
    """``("tokens", tokens, statements)`` of *text* through one front
    end, or ``("refused", message)`` where it raises."""
    try:
        tokens = scan(text)
    except SpecificationError as exc:
        return ("refused", str(exc))
    flat = [(token.kind, token.value, token.line) for token in tokens]
    try:
        statements = parser(tokens).parse()
    except SpecificationError as exc:
        return ("tokens", flat, "refused", str(exc))
    return ("tokens", flat, [statement_fields(s) for s in statements])


def statement_fields(statement: Any) -> Tuple[Any, ...]:
    if hasattr(statement, "family"):
        return (
            "operator",
            statement.name,
            statement.family,
            statement.parameters,
            statement.inputs,
            statement.line,
        )
    return (
        "deliver",
        statement.node,
        statement.role,
        statement.assignment,
        statement.description,
        statement.schema_name,
        statement.line,
    )


#: What a corruption inserts: every character the grammar gives a
#: meaning to, a few it refuses, and keywords out of place.
FRAGMENTS = list('[](){},*=<>!"#\\-.$% \t\n') + [
    "deliver", "to", "using", "as", "named", "<=", "==", "-3", '""', "\\\n",
    "{a, b}", "x.", ".y", "Ctx.r",
]


@st.composite
def corrupted(draw: Any, text: str) -> str:
    """*text* with a few random edits: a fragment inserted, a span
    deleted, or a span repeated."""
    for __ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "repeat"]))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at:]
        else:
            end = draw(st.integers(min_value=at, max_value=min(len(text), at + 12)))
            text = text[:at] + (text[at:end] * 2 if edit == "repeat" else "") + text[end:]
    return text


texts = st.one_of(
    random_specs(),
    random_specs().flatmap(corrupted),
    st.lists(st.sampled_from(FRAGMENTS + list("abAB_1 ")), max_size=24).map("".join),
)

#: Tier-1 runs 300 examples; the nightly ``soak`` profile
#: (``--hypothesis-profile=soak``) runs its own count.
PROFILE_EXAMPLES = settings.default.max_examples
SOAK = PROFILE_EXAMPLES > 100


class TestFrontEndDifferential:
    @given(text=texts)
    @settings(max_examples=PROFILE_EXAMPLES if SOAK else 300, deadline=None)
    def test_both_front_ends_read_a_text_alike(self, text):
        assert outcome(tokenize, _Parser, text) == outcome(
            reference_tokenize, ReferenceParser, text
        )

    def test_corruptions_reach_every_refusal(self):
        """The hand-picked texts behind each message the front end
        gives, so the property's alphabet is known to reach them."""
        refusals = {
            "a = b $ c\n": "line 1: cannot tokenize '$ c'",
            'a = F["x](y)\n': "line 1: cannot tokenize \'\"x](y)\'",
            "]\n": "line 1: unexpected ']'",
            "a b\n": "line 1: expected '=', got 'b'",
            "a = 1\n": "line 1: expected 'identifier', got '1'",
            "a = F(x)\n": "line 1: expected '[', got '('",
            "a = F[=](x)\n": "line 1: invalid parameter '='",
            "a = F[\n": "line 1: invalid parameter '\\n'",
            "a = F[{x, 1}](y)\n": "line 1: invalid state set element '1'",
            "a = F[](1)\n": "line 1: invalid input '1'",
            "a = F[] x\n": "line 1: expected '(', got 'x'",
            "a = F[](x) y\n": "line 1: expected 'newline', got 'y'",
            "deliver 1\n": "line 1: expected 'identifier', got '1'",
            "deliver a at r\n": "line 1: expected 'to', got 'at'",
            "deliver a to Ctx.\n": "line 1: malformed role 'Ctx.'",
            "deliver a to r 3\n": "line 1: expected 'identifier', got '3'",
            "deliver a to r by x\n": "line 1: unexpected 'by' in deliver",
            "deliver a to r as x\n": "line 1: expected 'string', got 'x'",
            "\n\ndeliver a to r using \\\n  \"s\"\n": (
                "line 3: expected 'identifier', got 's'"
            ),
        }
        for text, message in refusals.items():
            for scan, parser in (
                (tokenize, _Parser),
                (reference_tokenize, ReferenceParser),
            ):
                result = outcome(scan, parser, text)
                assert result[-1] == message, (text, result)
