"""Segments: runs of single-consumer hops linked as one generated function.

Six families — the three primitive filters, ``Count``, ``Compare1`` and
``Edge`` — state their algorithm once, as a :class:`Template`: Python
source over the operator attributes it closes over and its locals
(``$name``) and its input's ``C_P`` fields (``@field``), with ``$emit``
marking where the one output leaves and ``$skip`` where an input is
dropped.  Two things are generated from it:

* the **hop** kernel (:func:`hop_kernel`), one operator on its own: the
  input is a record, the output is built as a
  :class:`~repro.events.canonical.CanonicalEvent` and pushed through the
  operator's ``emit``.  It is what :meth:`EventOperator.step` links and
  what a tap (``consume``) or an instrumented run goes through.
* the **segment** (:func:`link_segment`): a run of hops where each
  operator's only consumer is the next one's slot 0, as one function.
  Between two hops the ``C_P`` event is the previous hop's locals; a
  record is built only where the event escapes the segment, at the
  tail's ``emit`` (its fan-out).  While instrumentation is on, a segment
  hands its input to the root's hop form, so provenance and spans see
  every hop's record as before.

A segment's source depends only on its families and variant, never on a
specification value: the operators, their attributes (parameters,
``_partitions`` dicts) and the tail's ``emit`` are arguments of a cached
factory, so they become closure cells.  A hop form is compiled when its
template is defined, a segment shape when the first event reaches a
segment of it (see :func:`link_segment`); :func:`shapes_compiled` counts
both.
"""

from __future__ import annotations

import itertools
import linecache
import re
from operator import attrgetter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from ...events.canonical import CANONICAL_KEYS, FIELDS, CanonicalEvent
from ...observability import INSTRUMENTATION as _OBS

Step = Callable[[Any], object]

#: What a record is built from, in assignment order: every field, then
#: its type and key order.
_RECORD = ("_event_type",) + FIELDS + ("_keys",)

#: The generated code's globals; everything else it names is an argument.
_GLOBALS: Dict[str, Any] = {
    "_new": object.__new__,
    "_Record": CanonicalEvent,
    "_OBS": _OBS,
    "CANONICAL_KEYS": CANONICAL_KEYS,
}

_NAME = re.compile(r"\$(\w+)")
_FIELD = re.compile(r"@(\w+)")
_SIMPLE = re.compile(r"[\w.]+")

#: Compiled factories: a hop form under its template, a segment under
#: ``(variant, templates)``.
_FACTORIES: Dict[Any, Callable[..., Step]] = {}
#: Numbers each compiled source's file name, for tracebacks (linecache).
_SOURCES = itertools.count()


@dataclass(frozen=True, eq=False)
class Template:
    """One family's algorithm as source (see the module docstring).

    *cells* names the operator attributes the source reads as ``$name``
    (closure values, read when the operator is linked); every other
    ``$name`` is a local.  *names* are module-level helpers the source
    calls by their own name.  *output* gives the expression of each
    field the output sets; a family that does not *lift* copies every
    other field from its input.  A lifting family (a filter) reads the
    primitive ``event`` itself, sets every field, and only ever roots a
    segment.  *loops* says ``$emit`` sits inside a loop of the body, so
    a later hop drops an input with ``continue``.  Output expressions
    read only the family's own names and its input's fields; a record is
    built from them where the event escapes.

    The hop form is compiled when the template is defined, so a forked
    worker inherits it.
    """

    cells: Tuple[str, ...]
    body: str
    output: Mapping[str, str]
    lift: bool = False
    loops: bool = False
    names: Mapping[str, Any] = field(default_factory=dict)
    #: The cells' values, read off one operator, as a tuple.
    values: Callable[[Any], Tuple[Any, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values: Callable[[Any], Any] = attrgetter(*self.cells)
        if len(self.cells) == 1:
            values = lambda operator: (getattr(operator, self.cells[0]),)  # noqa: E731
        object.__setattr__(self, "values", values)
        _compile(self, "hop", (self,))


def shapes_compiled() -> int:
    """How many hop forms and segment shapes this process has compiled."""
    return len(_FACTORIES)


def hop_kernel(operator: Any, emit: Callable[[Any, Any], None]) -> Step:
    """*operator*'s hop kernel: its template on one record, the output
    pushed through *emit*."""
    template = operator.template
    return _FACTORIES[template](emit, *template.values(operator))


def link_segment(
    members: Sequence[Any], door: bool, rebind: Callable[[Step, Step], None]
) -> Step:
    """One function running every hop of *members* (each the only
    consumer of the one before it), built from the cached factory of
    their shape.

    A *door* entry is what a producer calls: it runs the root's slot
    type guard and ``consumed`` count itself.  Otherwise it is the
    kernel of the upstream operator's fan-out link, where ``emit`` runs
    both.  While instrumentation is on, either hands the event to the
    root's hop form (its step, or its kernel).

    A shape not yet compiled in this process is compiled when its first
    event arrives, not here: until then the entry is a stand-in that
    compiles it, asks *rebind(stand-in, segment)* to put the segment
    where the stand-in is, and runs it.  So deploying never compiles,
    and a freshly forked shard worker is ready without compiling.
    """
    root = members[0]
    templates = tuple([op.template for op in members])
    variant = "door" if door else "link"
    factory = _FACTORIES.get((variant, templates))
    if factory is None:

        def first(event: Any) -> object:
            if (variant, templates) not in _FACTORIES:
                _compile((variant, templates), variant, templates)
            segment = link_segment(members, door, rebind)
            rebind(first, segment)
            return segment(event)

        return first
    # Every member is linked: the cache wired it before relinking.
    arguments = [
        *members,
        members[-1]._emit,
        root._steps[0] if door else root._kernels[0],
        root.signature.input_types[0],
    ]
    for template, op in zip(templates, members):
        arguments += template.values(op)
    return factory(*arguments)


def _compile(
    key: Any, variant: str, templates: Tuple[Template, ...]
) -> Callable[..., Step]:
    """Compile the factory of one shape and cache it under *key*."""
    source = _render(variant, templates)
    filename = f"<segment {next(_SOURCES)}: {variant}>"
    lines = source.splitlines(keepends=True)
    linecache.cache[filename] = (len(source), None, lines, filename)
    namespace = dict(_GLOBALS)
    for template in templates:
        namespace.update(template.names)
    exec(compile(source, filename, "exec"), namespace)
    factory: Callable[..., Step] = namespace["_factory"]
    _FACTORIES[key] = factory
    return factory


def _render(variant: str, templates: Tuple[Template, ...]) -> str:
    """The factory source of one shape.  Names in it are the templates'
    own (suffixed with the hop index) and fixed ones; no value of any
    operator appears."""
    arguments: List[str] = ["_emit"]
    if variant != "hop":
        arguments = [f"_op{index}" for index in range(len(templates))]
        arguments += ["_emit", "_fallback", "_expected"]
    body: List[str] = []
    if variant != "hop":
        body += [
            "if _OBS.enabled:",
            "    return _fallback(event)",
        ]
    if variant == "door":
        body += [
            "_received = event._event_type",
            "if _received is not _expected and _received.name != _expected.name:",
            "    raise _op0._slot_error(0, _received)",
            "_op0.consumed += 1",
        ]
    source = {name: f"event.{name}" for name in _RECORD}
    for index, template in enumerate(templates):
        arguments += [f"{name}_{index}" for name in template.cells]
    body += _hop(templates, 0, source, "return", variant != "hop")
    lines = [f"def _factory({', '.join(arguments)}):", "    def _run(event):"]
    lines += ["        " + line for line in body]
    lines += ["    return _run", ""]
    return "\n".join(lines)


def _hop(
    templates: Tuple[Template, ...],
    index: int,
    source: Dict[str, str],
    skip: str,
    counted: bool,
) -> List[str]:
    """Lines of hop *index* and, at its ``$emit``, of everything after
    it; *source* maps each input field to the expression holding it."""
    template = templates[index]

    def local(match: "re.Match[str]") -> str:
        name = match.group(1)
        return skip if name == "skip" else f"{name}_{index}"

    def input_field(match: "re.Match[str]") -> str:
        expression = source[match.group(1)]
        return expression if _SIMPLE.fullmatch(expression) else f"({expression})"

    def substitute(text: str) -> str:
        return _FIELD.sub(input_field, _NAME.sub(local, text))

    lines: List[str] = []
    for raw in template.body.strip("\n").splitlines():
        text = raw.lstrip()
        pad = raw[: len(raw) - len(text)]
        if text != "$emit":
            lines.append(pad + substitute(text))
            continue
        output = {} if template.lift else dict(source)
        output.update(
            (name, substitute(expression))
            for name, expression in template.output.items()
        )
        if index + 1 == len(templates):
            lines += [pad + line for line in _escape(output)]
            continue
        if counted:
            lines += [
                f"{pad}_op{index}.produced += 1",
                f"{pad}_op{index + 1}.consumed += 1",
            ]
        inner = "continue" if template.loops or skip == "continue" else "return"
        lines += [
            pad + line
            for line in _hop(templates, index + 1, output, inner, counted)
        ]
    return lines


def _escape(output: Dict[str, str]) -> List[str]:
    """Build the record of *output* and push it through the tail's
    ``emit`` (the input is the cause that provenance would link)."""
    lines = ["_out = _new(_Record)"]
    lines += [f"_out.{name} = {output[name]}" for name in _RECORD]
    lines += [
        "_out.provenance = None",
        "_out._mapping = None",
        "_emit(_out, event)",
    ]
    return lines
