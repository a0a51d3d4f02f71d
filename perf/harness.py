"""Measurement plumbing shared by every workload.

The harness is one process and one thread.  It measures the program
*from outside*: every number comes from timing the harness's own calls
into public functions of ``repro``; nothing under ``src/`` is touched.

* :class:`Spans` — the span recorder of the traced run: name, start,
  end, parent and repetition id per call, kept in memory and written
  out once at exit.  End-to-end metrics come from a run with the
  recorder off (``Harness.spans is None``).
* :class:`Harness` — counts every call into the system (the denominator
  of the failure share), the oracle checks, and owns the scratch
  directory under ``perf/out/``.
* :func:`calibrate` — a fixed pure-Python loop timed before and after a
  workload, so committed trajectories compare across runners and a
  noisy neighbour shows.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")

#: Two calibration readings further apart than this mark the run noisy.
NOISE_LIMIT = 0.10

#: Share of ``--seconds`` the rounds may use; the rest is the recovery
#: phase, the oracles and slack.
ROUNDS_SHARE = 0.85
MIN_ROUNDS = 3
#: Per round: length of the paced segment and the windows it is cut
#: into, deploy/undeploy pairs of the churn segment and how many make
#: one sample, extra set-ups.
PACED_SECONDS = 1.5
PACED_WINDOWS = 6
CHURN_DEPLOYS = 32
CHURN_GROUP = 4
SETUPS_PER_ROUND = 4


# -- clocks ------------------------------------------------------------------


def process_cpu_seconds(pids: Sequence[int]) -> float:
    """CPU used so far by the *live* processes *pids*, read from outside
    (``/proc/<pid>/schedstat``: nanoseconds on a CPU)."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/schedstat") as handle:
            total += int(handle.read().split()[0])
    return total / 1e9


def peak_rss_mb(who: int) -> float:
    """Peak resident set (MiB) of ``RUSAGE_SELF`` or ``RUSAGE_CHILDREN``."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def typical(samples: Sequence[float], better: str = "lower") -> float:
    """The mean of the better quarter of *samples*: what the program
    costs when the machine is not busy with something else.

    The reference box runs at two speeds, about 1.7x apart, and flips
    between them every 0.5 s to several minutes (a fixed loop timed
    twice a second reads 1.75 or 3.0 Mops/s, rarely anything between).
    The slow speed is a neighbour's doing, not the program's, and how
    much of a run it covers varies from none to all: a median over the
    run follows that share, and its run-to-run spread reaches 35 %.
    Noise only ever adds time, so every metric is sampled over many
    windows (0.05-1.3 s) that all do the same work, and the better
    quarter of them is averaged: it needs only a quarter of the windows
    to be undisturbed, and unlike a minimum it does not hang on one
    lucky window.  (Over ten runs of every workload in a noisy hour the
    spreads of the run medians reached 27 %, of the better quartile's
    edge 20 %, of this mean 14 %.)
    """
    ranked = sorted(samples, reverse=better == "higher")
    return float(statistics.fmean(ranked[:max(1, len(ranked) // 4)]))


def by_round(values: Sequence[float], group: int) -> List[float]:
    """The typical value of each round, *group* samples to a round."""
    return [
        typical(values[start:start + group])
        for start in range(0, len(values), group)
    ]


def paired_ratio(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """Median of the round-by-round ratios.  The two sides of a pair are
    measured within seconds of each other, so a slow stretch of the
    machine slows both."""
    return median([n / d for n, d in zip(numerators, denominators)])


def percentile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return float(sorted_values[rank])


# -- open loop ---------------------------------------------------------------

TICK_S = 0.005
#: Above this busy share a paced rate is not sustainable: what the phase
#: measures then is a growing backlog, not a latency.
BUSY_LIMIT = 0.8

#: One tick that had items due: ``(first, end, scheduled, started, finished)``.
Tick = Tuple[int, int, float, float, float]


def open_loop(
    total: int, rate: float, serve: Callable[[int, int], None]
) -> Tuple[float, List[Tick]]:
    """Offer *total* items at *rate* per second on a ``TICK_S`` grid.

    Item ``k`` is due at ``t0 + k / rate`` whatever the system does
    (open loop): each tick calls ``serve(first, end)`` with every item
    due by now.  A tick that overruns skips the grid slots it swallowed;
    the items that came due meanwhile are served at once.
    """
    ticks: List[Tick] = []
    sent = 0
    tick = 0
    t0 = time.perf_counter()
    while sent < total:
        scheduled = t0 + tick * TICK_S
        now = time.perf_counter()
        if now < scheduled:
            time.sleep(scheduled - now)
            now = time.perf_counter()
        due = min(total, int((now - t0) * rate) + 1)
        if due > sent:
            serve(sent, due)
            ticks.append((sent, due, scheduled, now, time.perf_counter()))
            sent = due
        tick = max(tick + 1, int((time.perf_counter() - t0) / TICK_S))
    return t0, ticks


def record_latencies(
    samples: Dict[str, List[float]], latencies: List[float]
) -> None:
    """One paced segment's per-item latencies (in due order) → the p50
    and p90 of each of ``PACED_WINDOWS`` equal stretches, and the
    segment's p99, in milliseconds.  Sorts *latencies*."""
    size = max(1, len(latencies) // PACED_WINDOWS)
    for start in range(0, size * PACED_WINDOWS, size):
        window = sorted(latencies[start:start + size])
        samples["detect_latency_p50_ms"].append(percentile(window, 0.50) * 1e3)
        samples["detect_latency_p90_ms"].append(percentile(window, 0.90) * 1e3)
    latencies.sort()
    samples["p99_ms"].append(percentile(latencies, 0.99) * 1e3)


def record_churn(
    samples: Dict[str, List[float]], deploys: List[float], undeploys: List[float]
) -> None:
    """One churn segment's call times → a sample per ``CHURN_GROUP``
    consecutive calls (their median), in milliseconds."""
    for start in range(0, len(deploys), CHURN_GROUP):
        samples["deploy_ms_p50"].append(
            median(deploys[start:start + CHURN_GROUP]) * 1e3
        )
        samples["undeploy_ms"].append(
            median(undeploys[start:start + CHURN_GROUP]) * 1e3
        )


def paced_health(ticks: List[Tick], t0: float, rate: float) -> Dict[str, Any]:
    """How the open loop itself ran: service time per tick, how late the
    generator was, and whether the system kept up."""
    service = sorted(finished - started for *_, started, finished in ticks)
    late = sorted(started - scheduled for *_, scheduled, started, __ in ticks)
    busy = sum(service) / (ticks[-1][4] - t0)
    # A backlog shows as ticks that carry more and more items.
    tail = ticks[-max(1, len(ticks) // 10):]
    tail_batch = sum(end - first for first, end, *_ in tail) / len(tail)
    return {
        "tick_service_p50_ms": percentile(service, 0.50) * 1e3,
        "tick_service_p99_ms": percentile(service, 0.99) * 1e3,
        "generator_late_p99_ms": percentile(late, 0.99) * 1e3,
        "busy_share": busy,
        "sustainable": busy <= BUSY_LIMIT
        and tail_batch <= max(8.0, 4 * rate * TICK_S),
    }


def paced_layers(result: Dict[str, Any]) -> Dict[str, float]:
    """The open loop's own health, median over the segments."""
    samples, health = result["samples"], result["health"]
    return {
        "facade.tick_service_p50_ms": median([h["tick_service_p50_ms"] for h in health]),
        "facade.tick_service_p99_ms": median([h["tick_service_p99_ms"] for h in health]),
        "facade.generator_late_p99_ms": median(
            [h["generator_late_p99_ms"] for h in health]
        ),
        "facade.paced_busy_share": median([h["busy_share"] for h in health]),
        "facade.detect_latency_p99_ms": median(samples["p99_ms"]),
        "facade.notify_latency_p50_ms": median(samples["notify_ms"]),
    }


# -- spans -------------------------------------------------------------------


class Spans:
    """In-memory span recorder for the traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, rep id]`` rows.
        self.rows: List[List[Any]] = []
        self._stack: List[int] = []
        self.rep: Optional[str] = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.rows)
        self.rows.append([name, time.perf_counter(), 0.0, parent, self.rep])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.rows[index][2] = time.perf_counter()
        self._stack.pop()

    # -- reading -----------------------------------------------------------

    def coverage_share(self, name: str) -> float:
        """Share of the time of the spans called *name* that their direct
        children cover."""
        parents = {
            index for index, row in enumerate(self.rows) if row[0] == name
        }
        total = sum(self.rows[i][2] - self.rows[i][1] for i in parents)
        covered = sum(
            row[2] - row[1] for row in self.rows if row[3] in parents
        )
        return covered / total if total else 0.0

    def to_json(self) -> List[Dict[str, Any]]:
        """Rows with self time (duration minus direct children)."""
        child_time = [0.0] * len(self.rows)
        for row in self.rows:
            if row[3] >= 0:
                child_time[row[3]] += row[2] - row[1]
        return [
            {
                "id": index,
                "name": row[0],
                "start": row[1],
                "end": row[2],
                "parent": row[3],
                "rep": row[4],
                "self": (row[2] - row[1]) - child_time[index],
            }
            for index, row in enumerate(self.rows)
        ]


class Harness:
    """Call counting, oracle bookkeeping and scratch space of one run."""

    def __init__(
        self, workload: str, seed: int, traced: bool, smoke: bool = False
    ) -> None:
        self.workload = workload
        self.seed = seed
        #: A smoke run checks outputs only; its timings mean nothing.
        self.smoke = smoke
        self.paced_seconds = 0.3 if smoke else PACED_SECONDS
        self.churn_deploys = CHURN_GROUP if smoke else CHURN_DEPLOYS
        self.setups_per_round = 1 if smoke else SETUPS_PER_ROUND
        self.spans: Optional[Spans] = Spans() if traced else None
        #: Calls made into the system under test.
        self.calls = 0
        #: Notifications the oracles expected / found wrong.
        self.expected = 0
        self.mismatches = 0
        self.problems: List[str] = []
        #: What is wrong with the measurement (not with the program's
        #: output): the cost model not adding up, a rate not sustained.
        self.warnings: List[str] = []
        self.accounting_failures = 0
        self.scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
        self._dirs = 0

    # -- calls into the system ----------------------------------------------

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Call into the system under test; a span when traced."""
        self.calls += 1
        spans = self.spans
        if spans is None:
            return fn(*args)
        index = spans.begin(name)
        try:
            return fn(*args)
        finally:
            spans.end(index)

    @contextmanager
    def span(self, name: str, rep: Optional[str] = None) -> Iterator[None]:
        """A grouping span (phase, repetition); free when not traced."""
        spans = self.spans
        if spans is None:
            yield
            return
        if rep is not None:
            spans.rep = rep
        index = spans.begin(name)
        try:
            yield
        finally:
            spans.end(index)

    # -- rounds ---------------------------------------------------------------

    def run_rounds(
        self, seconds: float, rate: float, one_round: Callable[[int], Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Call ``one_round(index)`` until another round would overrun
        the rounds' share of *seconds* (a smoke run: once).  Each call
        returns its paced segment's health (:func:`paced_health`)."""
        health: List[Dict[str, Any]] = []
        started = time.perf_counter()
        budget = 0.0 if self.smoke else seconds * ROUNDS_SHARE
        while True:
            health.append(one_round(len(health)))
            used = time.perf_counter() - started
            enough = len(health) >= (1 if self.smoke else MIN_ROUNDS)
            if enough and used + used / len(health) > budget:
                break
        if not all(segment["sustainable"] for segment in health):
            self.warn(
                f"paced: {rate:g}/s was over the sustainable rate in a segment "
                f"(busy shares "
                f"{[round(segment['busy_share'], 2) for segment in health]}); "
                f"its latency percentiles measure a backlog"
            )
        return health

    # -- oracle bookkeeping -------------------------------------------------

    def check_count(self, what: str, got: int, want: int) -> None:
        """Count *want* expected notifications; missing and unexpected
        ones are failures."""
        self.expected += want
        if got != want:
            self.mismatches += abs(got - want)
            self.problems.append(f"{what}: got {got}, expected {want}")

    def check(self, what: str, ok: bool) -> None:
        """One pass/fail oracle assertion."""
        self.expected += 1
        if not ok:
            self.mismatches += 1
            self.problems.append(what)

    def warn(self, what: str) -> None:
        if not self.smoke:
            self.warnings.append(what)

    def account(self, what: str, ok: bool) -> None:
        """An accounting check of the traced run: the benchmark's own
        books, not the program's output."""
        if not ok and not self.smoke:
            self.accounting_failures += 1
            self.warnings.append(what)

    # -- scratch ------------------------------------------------------------

    def fresh_dir(self) -> str:
        """A new empty directory inside the checkout (``perf/out/``)."""
        self._dirs += 1
        path = os.path.join(self.scratch, f"d{self._dirs}")
        os.makedirs(path)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def write_trace(self, extra: Dict[str, Any]) -> Optional[str]:
        if self.spans is None:
            return None
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{self.workload}.json")
        document = dict(extra)
        document["spans"] = self.spans.to_json()
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
        return path


# -- calibration -------------------------------------------------------------


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next: Optional["_Cell"] = None


def calibrate(rounds: int = 250_000, passes: int = 3) -> float:
    """Operations per second of a fixed dict/tuple/attribute churn loop.

    About 0.3 s on the reference box.  The loop allocates and discards
    the same small objects the event pipeline does, so it tracks the
    interpreter's speed on this runner, not a FLOP count.  The best of
    *passes* is reported: the question is how fast the machine can go,
    and a pre-empted pass only says it was pre-empted.
    """
    best = 0.0
    for __ in range(passes):
        table: Dict[Any, Any] = {}
        head = _Cell(0)
        started = time.perf_counter()
        for i in range(rounds):
            key = (i & 1023, "k")
            cell = _Cell(i)
            cell.next = head.next
            head = cell
            table[key] = (cell.value, key)
        elapsed = time.perf_counter() - started
        if len(table) != 1024 or head.value != rounds - 1:
            raise AssertionError("calibration loop is broken")
        best = max(best, rounds / elapsed)
    return best


# -- environment header ------------------------------------------------------


def _filesystem_type(path: str) -> str:
    """The filesystem type *path* lives on (longest matching mount)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                prefix = mount.rstrip("/") + "/"
                if (path == mount or path.startswith(prefix)) and len(
                    mount
                ) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (the driver's checkout is not a repository: then ``unknown``)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git_dir, head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def environment() -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "scratch_fs": _filesystem_type(OUT_DIR),
        "commit": _git_commit(),
    }
