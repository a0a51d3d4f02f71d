"""Templates: every operator family's algorithm, and the code linked
from it.

Every family states its algorithm once, as a :class:`Template`: Python
source over the operator attributes it closes over and its locals
(``$name``), its input's ``C_P`` fields (``@field``) and the input slot
(``$slot``), with ``$emit`` marking where an output leaves and ``$skip``
where an input is dropped.  Two things are generated from it:

* the **hop** entry (:func:`hop_entries`), one operator on its own,
  one per input slot, and the only way into that slot: it runs the
  slot's type guard and the ``consumed`` count, then the template on the
  event — inside an ``operator.consume`` span when instrumentation is on
  and the trace is sampled — and pushes each output (a
  :class:`~repro.events.canonical.CanonicalEvent` record, unless the
  template *makes* another event) through the operator's ``emit``.  It
  is what :meth:`EventOperator.step` returns, and what producers, an
  upstream ``emit``, a tap (``consume``) and an instrumented run call.
* the **segment** (:func:`link_segment`): a run of single-input hops
  where each operator's only consumer is the next one, as one function
  that stands in for the root's entry.  It runs the root's guard and
  count, then every hop; between two hops the ``C_P`` event is the
  previous hop's locals, and a record is built only where the event
  escapes the segment, at the tail's ``emit`` (its fan-out).  While
  instrumentation is on, a segment hands its input to the root's entry,
  so provenance and spans see every hop's record as before.
* the **column entry** of a segment or hop whose root template is
  :attr:`~Template.by_column` (the lifting filters): the same code on
  one row of a decoded run, reading ``$params["x"]`` off column ``x``,
  hung on the entry as ``entry.by_column(run, row)``.  A producer
  walking a run calls it, and an event is built for the row only where
  one escapes (see ``EventProducer.emit_run``).

Generated source depends only on the templates, never on a
specification value: the operators, their attributes (parameters,
``_partitions`` dicts), the slot and the tail's ``emit`` are arguments
of a cached factory, so they become closure cells.  A hop form is
compiled when its template is defined, a segment shape when the first
event reaches a segment of it (see :func:`link_segment`);
:func:`shapes_compiled` counts both.
"""

from __future__ import annotations

import itertools
import linecache
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
#: A column entry's reads: ``$params["x"]`` becomes row ``_i`` of column
#: ``x``, and ``$params`` itself the row's mapping.
_COLUMN_READ = re.compile(r'(\$params\["\w+"\])')
_ROW_MAPPING = re.compile(r"\$params(?![\[\w])")
#: The one line through which a *by_column* template reads its input.
_PARAMS_LINE = "$params = event._params"
_FIELD = re.compile(r"@(\w+)")
_SIMPLE = re.compile(r"[\w.]+")

#: Compiled factories: a hop form under its template, a segment shape
#: under its tuple of templates.
_FACTORIES: Dict[Any, Callable[..., Step]] = {}
#: Numbers each compiled source's file name, for tracebacks (linecache).
_SOURCES = itertools.count()


@dataclass(frozen=True, eq=False)
class Template:
    """One family's algorithm as source (see the module docstring).

    *cells* names the operator attributes the source reads as ``$name``
    (closure values, read when the operator is linked); ``$slot`` is the
    input slot the entry serves, and every other ``$name`` is a local.
    *names* are module-level helpers the source calls by their own name.
    *output* gives the expression of each field the output sets; every
    other field is copied from *base* (an expression of a held record)
    or else from the input.  A family that *lifts* (a filter) sets every
    field and only ever roots a segment.  *cause* is what provenance
    links the output to (default: the input).  *make* is the expression
    of an output that is not a ``C_P`` record (``Output``'s delivery
    event); such a family is never fused.  *loops* says ``$emit`` sits
    inside a loop of the body, so a later hop drops an input with
    ``continue``.  Output expressions read only the family's own names
    and its input's fields; a record is built from them where the event
    escapes.  *by_column* says a lifting body reads its input only
    through its first line, ``$params = event._params``, so a column
    entry can be rendered from it.

    The hop form is compiled when the template is defined, so a forked
    worker inherits it.
    """

    cells: Tuple[str, ...]
    body: str
    output: Mapping[str, str] = field(default_factory=dict)
    lift: bool = False
    loops: bool = False
    base: Optional[str] = None
    cause: str = "event"
    make: Optional[str] = None
    names: Mapping[str, Any] = field(default_factory=dict)
    by_column: bool = False

    def __post_init__(self) -> None:
        if self.by_column:
            # The column entry reads ``$params["x"]`` off the columns: the
            # event must reach the body only through that one line.
            body = self.body.strip("\n")
            reads = [body, *self.output.values()]
            if (
                not self.lift
                or body.splitlines()[0] != _PARAMS_LINE
                or sum(len(re.findall(r"\bevent\b", text)) for text in reads) != 1
            ):
                raise ValueError(
                    "a by_column template lifts and reads its input only "
                    f"through its first line, {_PARAMS_LINE!r}"
                )
        _compile(self, "hop", (self,))

    def values(self, operator: Any) -> List[Any]:
        """The cells' values, read off *operator* (when it is linked)."""
        return list(map(getattr, itertools.repeat(operator), self.cells))


def shapes_compiled() -> int:
    """How many hop forms and segment shapes this process has compiled."""
    return len(_FACTORIES)


def hop_entries(operator: Any, emit: Callable[[Any, Any], None]) -> Tuple[Step, ...]:
    """*operator*'s entries, one per input slot: its template on one
    event behind the slot's guard, the outputs pushed through *emit*."""
    template = operator.template
    link = partial(_FACTORIES[template], operator, emit, *template.values(operator))
    return tuple(map(link, range(len(operator.signature.input_types))))


def link_segment(members: Sequence[Any], rebind: Callable[[Step, Step], None]) -> Step:
    """One function running every hop of *members* (each the only
    consumer of the one before it), built from the cached factory of
    their shape.

    It is the root's input entry wherever that is called from — a
    producer or the upstream operator's ``emit`` — so it runs the root's
    slot type guard and ``consumed`` count itself.  While
    instrumentation is on, it hands the event to the root's own entry.

    A shape not yet compiled in this process is compiled when its first
    event arrives, not here: until then the entry is a stand-in that
    compiles it, asks *rebind(stand-in, segment)* to put the segment
    where the stand-in is, and runs it.  So deploying never compiles,
    and a freshly forked shard worker is ready without compiling.
    """
    templates = tuple([op.template for op in members])
    factory = _FACTORIES.get(templates)
    if factory is None:

        def first(event: Any) -> object:
            if templates not in _FACTORIES:
                _compile(templates, "segment", templates)
            segment = link_segment(members, rebind)
            rebind(first, segment)
            return segment(event)

        return first
    # The root may be a fresh leaf, linked here; the rest are wired, so
    # linked.
    entry = members[0].step(0)
    arguments = [*members, members[-1]._emit, entry]
    for template, op in zip(templates, members):
        arguments += template.values(op)
    return factory(*arguments)


def _compile(
    key: Any, variant: str, templates: Tuple[Template, ...]
) -> Callable[..., Step]:
    """Compile the factory of one shape (*variant* ``hop`` or
    ``segment``) and cache it under *key*."""
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
    hop = variant == "hop"
    arguments = [f"_op{index}" for index in range(len(templates))]
    arguments += ["_emit"] if hop else ["_emit", "_entry"]
    for index, template in enumerate(templates):
        arguments += [f"{name}_{index}" for name in template.cells]
    # A segment's hops are single-input: each serves slot 0.
    prologue = ["_expected = _op0.signature.input_types[_slot]"]
    if hop:
        arguments.append("_slot")
        prologue.append('_attrs = {"node": _op0.instance_name, "op": _op0.family}')
    else:
        prologue.insert(0, "_slot = 0")
    # Event types are module-level or cached singletons: ``is`` almost
    # always settles the slot guard.
    guard = [
        "_received = event._event_type",
        "if _received is not _expected and _received.name != _expected.name:",
        "    raise _op0._slot_error(_slot, _received)",
        "_op0.consumed += 1",
    ]
    source = {name: f"event.{name}" for name in _RECORD}
    body = _hop(templates, 0, source, "return")
    if hop:
        # The span opens only in a trace the sampler records; inside a
        # skipped one the body runs as it does uninstrumented.
        run = guard + [
            "if _OBS.enabled and not _OBS.tracer._light_depth:",
            '    _span = _OBS.tracer.begin("operator.consume", event.time, _attrs)',
            "    try:",
            *["        " + line for line in body],
            "    finally:",
            "        _OBS.tracer.end(_span)",
            "    return",
            *body,
        ]
    else:
        run = ["if _OBS.enabled:", "    return _entry(event)", *guard, *body]
    lines = [f"def _factory({', '.join(arguments)}):"]
    lines += ["    " + line for line in prologue]
    lines += ["    def _run(event):"]
    lines += ["        " + line for line in run]
    if templates[0].by_column:
        # The column entry: ``event`` is the run (its rows' type, no
        # provenance) and ``_i`` the row; an instrumented row is built
        # and takes the event form.
        columns = [
            "if _OBS.enabled:",
            f"    return {'_run' if hop else '_entry'}(event.row(_i))",
            *guard,
            *_hop(templates, 0, source, "return", by_column=True),
        ]
        lines += ["    def _columns(event, _i):"]
        lines += ["        " + line for line in columns]
        lines += ["    _run.by_column = _columns"]
    lines += ["    return _run", ""]
    return "\n".join(lines)


def _hop(
    templates: Tuple[Template, ...],
    index: int,
    source: Dict[str, str],
    skip: str,
    by_column: bool = False,
) -> List[str]:
    """Lines of hop *index* and, at its ``$emit``, of everything after
    it; *source* maps each input field to the expression holding it.
    *by_column* renders the hop's reads of its input's parameters as
    reads of row ``_i`` of the run ``event`` (:attr:`Template.by_column`)."""
    template = templates[index]

    def local(match: "re.Match[str]") -> str:
        name = match.group(1)
        if name == "skip":
            return skip
        return "_slot" if name == "slot" else f"{name}_{index}"

    def input_field(match: "re.Match[str]") -> str:
        expression = source[match.group(1)]
        return expression if _SIMPLE.fullmatch(expression) else f"({expression})"

    def substitute(text: str) -> str:
        if by_column:
            text = _COLUMN_READ.sub(r"\1[_i]", text)
            text = _ROW_MAPPING.sub("event.mapping(_i)", text)
        return _FIELD.sub(input_field, _NAME.sub(local, text))

    lines: List[str] = []
    for raw in template.body.strip("\n").splitlines():
        text = raw.lstrip()
        pad = raw[: len(raw) - len(text)]
        if by_column and text == _PARAMS_LINE:
            lines.append(pad + _NAME.sub(local, "$params = event.columns"))
            continue
        if text != "$emit":
            lines.append(pad + substitute(text))
            continue
        if template.lift:
            output = {}
        elif template.base is not None:
            base = substitute(template.base)
            output = {name: f"{base}.{name}" for name in _RECORD}
        else:
            output = dict(source)
        output.update(
            (name, substitute(expression))
            for name, expression in template.output.items()
        )
        if index + 1 == len(templates):
            cause = substitute(template.cause)
            if template.make is not None:
                made = f"_emit({substitute(template.make)}, {cause})"
                lines += [pad + line for line in made.splitlines()]
            else:
                lines += [pad + line for line in _escape(output, cause)]
            continue
        lines += [
            f"{pad}_op{index}.produced += 1",
            f"{pad}_op{index + 1}.consumed += 1",
        ]
        inner = "continue" if template.loops or skip == "continue" else "return"
        lines += [
            pad + line
            for line in _hop(templates, index + 1, output, inner)
        ]
    return lines


def _escape(output: Dict[str, str], cause: str) -> List[str]:
    """Build the record of *output* and push it through the tail's
    ``emit``, with *cause* for provenance to link."""
    lines = ["_out = _new(_Record)"]
    lines += [f"_out.{name} = {output[name]}" for name in _RECORD]
    lines += [
        "_out.provenance = None",
        "_out._mapping = None",
        f"_emit(_out, {cause})",
    ]
    return lines
