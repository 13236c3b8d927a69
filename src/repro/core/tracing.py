"""Per-resolution span trees: follow one stub query through the system.

The aggregate reports (:class:`~repro.core.leakage.LeakageReport`,
:class:`~repro.core.observability.ObserverExposure`) answer *how much*
leaked; a trace answers *why*.  Every stub query becomes one root span
(``resolution``) whose children record, in causal order and on the
simulated clock, each upstream exchange, cache hit, DLV look-aside
probe, signature verification, fault injection, and hardening rejection
that the query triggered.  The DLV probes carry the paper's Case-1 /
Case-2 classification directly on the span (``leak="case-2"`` marks a
query the registry had no business seeing — the privacy leak of
Sections 3 and 5).

Design constraints, in order:

1. **Zero dependencies.**  This module imports nothing from the
   resolver or netsim layers; they receive a tracer by parameter
   (duck-typed) and guard every emission with ``if tracer is not
   None``, so the disabled path costs one attribute check.
2. **Determinism.**  Trace and span ids are sequential, timestamps
   come from the :class:`~repro.netsim.clock.SimClock`, and the JSONL
   export sorts keys — the same seed and workload produce a
   byte-identical export (enforced by ``tests/core/test_tracing.py``).
3. **Plain data.**  A :class:`Span` is a dataclass of JSON-safe
   scalars; export/import round-trips losslessly.

Span vocabulary (see ``docs/OBSERVABILITY.md`` for the full schema):

==================  ====================================================
``resolution``      root: one stub query, from arrival to answer
``resolve``         one engine resolution (recursive for NS fetches)
``exchange``        one query/response attempt on the wire
``lookaside``       one DLV registry search (label-stripping loop)
``dlv_probe``       one candidate probe inside a search; carries
                    ``leak`` = ``case-1`` / ``case-2`` / ``none``
``validate``        validation of one resolution outcome
``zone_security``   chain-of-trust computation for one zone apex
``signature_verify``  event: one RRSIG check (ok / failed)
``cache_hit``       event: answer served from cache (fresh or stale)
``fault``           event: injected loss / outage / brownout / tamper
``hardening``       event: a defence fired (spoof, scrub, budget, …)
==================  ====================================================
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclasses.dataclass
class Span:
    """One node of a trace tree.

    ``start`` / ``end`` are simulated-clock seconds; an *event* span is
    instantaneous (``start == end``).  ``attrs`` holds only JSON-safe
    scalars (str / int / float / bool / None) so the tree exports
    losslessly.
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    children: List["Span"] = dataclasses.field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds of simulated time the span covers (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order iteration over this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every span named *name* in this subtree, pre-order."""
        return [span for span in self.walk() if span.name == name]


class Tracer:
    """Builds span trees against a simulated clock.

    The API is a stack discipline: :meth:`begin` opens a child of the
    currently-open span (or a new root trace), :meth:`finish` closes
    the innermost open span, :meth:`event` records an instantaneous
    child, and :meth:`annotate` adds attributes to the innermost open
    span.  Finished root spans accumulate until :meth:`drain` collects
    them.

    One tracer instance is shared by the resolver *and* the network
    (see ``Universe.attach_telemetry``), so fault events injected
    mid-exchange nest under the exchange span that suffered them.

    Example::

        tracer = Tracer(universe.clock)
        universe.attach_telemetry(tracer=tracer)
        resolver = universe.make_resolver(correct_bind_config())
        universe.make_stub(resolver).query(Name.from_text("example.com"))
        (root,) = tracer.drain()
        print(render_span_tree(root))
    """

    def __init__(self, clock):
        self._clock = clock
        #: The open-span stack and the per-trace span counter are
        #: **thread-local**: under the event scheduler each concurrent
        #: stub session runs on its own pooled thread and builds its own
        #: span tree, so interleaved sessions cannot corrupt each
        #: other's stack discipline.  Trace ids (``_trace_seq``) and the
        #: finished-roots list stay *shared* and are touched only at
        #: root open / root close — which the scheduler's baton
        #: passing serialises in deterministic event order, so trace
        #: ids and drain order depend on the event schedule, not on
        #: thread identity.  On the serial path there is one thread and
        #: this is byte-identical to the old behaviour.
        self._local = threading.local()
        self._finished: List[Span] = []
        self._trace_seq = 0

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Emission API (duck-typed: NullTracer mirrors these signatures)
    # ------------------------------------------------------------------

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span: a child of the current span, or a new root."""
        stack = self._stack
        if stack:
            parent: Optional[Span] = stack[-1]
            trace_id = parent.trace_id  # type: ignore[union-attr]
            parent_id: Optional[int] = parent.span_id  # type: ignore[union-attr]
        else:
            parent = None
            self._trace_seq += 1
            self._local.span_seq = 0
            trace_id = self._trace_seq
            parent_id = None
        self._local.span_seq += 1
        span = Span(
            trace_id=trace_id,
            span_id=self._local.span_seq,
            parent_id=parent_id,
            name=name,
            start=self._clock.now,
            attrs=dict(attrs),
        )
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return span

    def finish(self, **attrs: Any) -> Span:
        """Close the innermost open span, merging *attrs* into it.

        Root closes append to the shared finished list, so drained trace
        order is *completion* order on the simulated clock — the order a
        log shipper tailing the resolver would emit them in.
        """
        stack = self._stack
        if not stack:
            raise RuntimeError("finish() with no open span")
        span = stack.pop()
        span.end = self._clock.now
        if attrs:
            span.attrs.update(attrs)
        if not stack:
            self._finished.append(span)
        return span

    def event(self, name: str, **attrs: Any) -> Span:
        """Record an instantaneous span (a point event).

        With no span open, the event becomes its own single-node trace
        — nothing is silently dropped.
        """
        span = self.begin(name, **attrs)
        return self.finish() if span is not None else span

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op when no
        span is open)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        """``with tracer.span("name"):`` — begin/finish as a scope."""
        self.begin(name, **attrs)
        try:
            yield self._stack[-1]
        finally:
            self.finish()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    @property
    def open_depth(self) -> int:
        """How many spans are currently open (0 between resolutions)."""
        return len(self._stack)

    def drain(self) -> List[Span]:
        """Collect (and clear) the finished root spans."""
        roots, self._finished = self._finished, []
        return roots

    def peek(self) -> Tuple[Span, ...]:
        """The finished roots, without clearing them."""
        return tuple(self._finished)


class NullTracer:
    """A tracer that records nothing but accepts every call.

    Used by the overhead benchmark to measure the cost of the emission
    *call sites* (attribute formatting plus a method call) as distinct
    from the cost of building span trees; ``tracer=None`` remains the
    true disabled path.
    """

    def begin(self, name: str, **attrs: Any) -> None:
        return None

    def finish(self, **attrs: Any) -> None:
        return None

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        yield None

    @property
    def open_depth(self) -> int:
        return 0

    def drain(self) -> List[Span]:
        return []

    def peek(self) -> Tuple[Span, ...]:
        return ()


# ----------------------------------------------------------------------
# Deterministic JSONL export / import
# ----------------------------------------------------------------------

def span_to_rows(root: Span) -> List[Dict[str, Any]]:
    """Flatten a span tree to dict rows, depth-first pre-order."""
    rows = []
    for span in root.walk():
        rows.append(
            {
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "attrs": span.attrs,
            }
        )
    return rows


def export_traces_jsonl(roots: Sequence[Span]) -> str:
    """Serialise trace trees to JSON Lines: one span per line,
    depth-first pre-order, keys sorted, no whitespace — the same trees
    always produce byte-identical text."""
    lines = []
    for root in roots:
        for row in span_to_rows(root):
            lines.append(
                json.dumps(row, sort_keys=True, separators=(",", ":"))
            )
    return "\n".join(lines) + ("\n" if lines else "")


def import_traces_jsonl(text: str) -> List[Span]:
    """Rebuild trace trees from :func:`export_traces_jsonl` output.

    Children re-attach by ``(trace, parent)``; the pre-order line order
    preserves sibling order, so ``export(import(export(x))) ==
    export(x)``.
    """
    roots: List[Span] = []
    by_id: Dict[Tuple[int, int], Span] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        span = Span(
            trace_id=row["trace"],
            span_id=row["span"],
            parent_id=row["parent"],
            name=row["name"],
            start=row["start"],
            end=row["end"],
            attrs=row["attrs"],
        )
        by_id[(span.trace_id, span.span_id)] = span
        if span.parent_id is None:
            roots.append(span)
        else:
            by_id[(span.trace_id, span.parent_id)].children.append(span)
    return roots


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _format_attrs(attrs: Dict[str, Any]) -> str:
    return " ".join(f"{key}={value}" for key, value in attrs.items())


def _format_span_line(span: Span) -> str:
    timing = f"@{span.start:.3f}s"
    if span.end is not None and span.end > span.start:
        timing += f" +{span.duration * 1000:.1f}ms"
    attrs = _format_attrs(span.attrs)
    return f"{span.name} [{timing}]" + (f" {attrs}" if attrs else "")


def render_span_tree(root: Span) -> str:
    """ASCII-render one trace tree, one span per line.

    Example output (abridged)::

        resolution [@0.000s +1007.5ms] qname=shop-31.info. qtype=A
        ├── resolve [@0.000s +861.6ms] qname=shop-31.info. qtype=A
        │   ├── exchange [@0.000s +33.4ms] server=10.0.2.74 ...
        ...
        └── lookaside [@0.911s +96.4ms] zone=shop-31.info. leak=case-2
            └── dlv_probe [@0.911s +96.4ms] ... leak=case-2
    """
    lines = [_format_span_line(root)]

    def _render(children: List[Span], prefix: str) -> None:
        for index, child in enumerate(children):
            last = index == len(children) - 1
            branch = "└── " if last else "├── "
            lines.append(prefix + branch + _format_span_line(child))
            _render(child.children, prefix + ("    " if last else "│   "))

    _render(root.children, "")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Per-observer leak summary
# ----------------------------------------------------------------------

@dataclasses.dataclass
class ObserverTraceSummary:
    """What one server address observed across a set of traces."""

    address: str
    #: Human-readable role ("root", "tld:com", "dlv-registry", …), or
    #: the address itself when no observer map was supplied.
    role: str
    #: Upstream exchanges this address received (per-attempt).
    exchanges: int
    #: Distinct query names it saw.
    distinct_qnames: int
    #: Case-1 DLV probes (deposited names — involved-party traffic)
    #: whose wire exchanges this address served.
    case1_probes: int
    #: Case-2 DLV probes (the privacy leak) it served.
    case2_probes: int
    #: The leaked look-aside query names themselves.
    leaked_qnames: Tuple[str, ...] = ()

    def describe(self) -> str:
        return (
            f"{self.role:<14} {self.exchanges:>5} exchanges, "
            f"{self.distinct_qnames:>4} qnames, "
            f"case-1 {self.case1_probes}, case-2 {self.case2_probes}"
        )


def observer_trace_summary(
    roots: Sequence[Span],
    observers: Optional[Dict[str, str]] = None,
) -> List[ObserverTraceSummary]:
    """Distil *who saw what* from trace trees.

    Every ``exchange`` span names the server it queried; every
    ``dlv_probe`` span carries the Case-1/Case-2 classification of its
    look-aside query.  A probe's leak is attributed to each server that
    answered an exchange inside the probe subtree (the registry always;
    ancestors like the root when the probe walked referrals there).

    ``observers`` maps address → role as produced by
    :func:`~repro.core.observability.universe_observers`; when given,
    only listed addresses are reported (mirroring
    :func:`~repro.core.observability.observer_exposures`).
    """
    exchanges: Dict[str, int] = {}
    qnames: Dict[str, set] = {}
    case1: Dict[str, int] = {}
    case2: Dict[str, int] = {}
    leaked: Dict[str, List[str]] = {}

    def _track(address: str) -> bool:
        if observers is not None and address not in observers:
            return False
        exchanges.setdefault(address, 0)
        qnames.setdefault(address, set())
        case1.setdefault(address, 0)
        case2.setdefault(address, 0)
        leaked.setdefault(address, [])
        return True

    if observers:
        for address in observers:
            _track(address)
    for root in roots:
        for span in root.walk():
            if span.name == "exchange":
                address = span.attrs.get("server")
                if address is None or not _track(address):
                    continue
                exchanges[address] += 1
                qname = span.attrs.get("qname")
                if qname is not None:
                    qnames[address].add(qname)
            elif span.name == "dlv_probe":
                leak = span.attrs.get("leak")
                if leak not in ("case-1", "case-2"):
                    continue
                served_by = {
                    child.attrs.get("server")
                    for child in span.walk()
                    if child.name == "exchange"
                    and not child.attrs.get("failed", False)
                }
                served_by.discard(None)
                for address in served_by:
                    if not _track(address):
                        continue
                    if leak == "case-1":
                        case1[address] += 1
                    else:
                        case2[address] += 1
                        dlv_name = span.attrs.get("dlv_name")
                        if dlv_name is not None:
                            leaked[address].append(dlv_name)
    return [
        ObserverTraceSummary(
            address=address,
            role=observers.get(address, address) if observers else address,
            exchanges=exchanges[address],
            distinct_qnames=len(qnames[address]),
            case1_probes=case1[address],
            case2_probes=case2[address],
            leaked_qnames=tuple(leaked[address]),
        )
        for address in exchanges
    ]
