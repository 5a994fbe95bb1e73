"""Span tracing of a manetsim run from outside the package.

While a Tracer is installed it replaces, on the manetsim modules and classes,
the functions the engine calls into each layer with wrappers that record a
span per call: (name, start, end, parent span index, run id). Spans stay in
memory; the benchmark aggregates them and writes them out when it ends.
`restore` puts every original back.
"""

import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

from manetsim import energy, engine, mobility, topology

# (owner, attribute, span name): plain calls, one span each
SPAN_TARGETS = (
    (mobility, "advance", "mobility.advance"),
    (engine, "snapshot", "topology.snapshot"),
    (engine, "charge_route_discovery", "energy.discovery_charge"),
    (engine, "charge_beacon_round", "energy.beacon_round"),
    (engine.Simulation, "_maintain_routes", "engine.maintain"),
    (engine.Simulation, "_tick_send_tables", "engine.send_tables"),
    (engine.Simulation, "_deliver", "engine.deliver"),
    (engine.Simulation, "_sync_batteries", "engine.sync"),
)


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent index, run id)
        self.counts = Counter()
        self.run_id = 0
        self.missing = []          # targets absent from this version of manetsim
        self._stack = []
        self._saved = []
        self._let_built = weakref.WeakSet()
        self.debits = [0]          # EnergyLedger.debit calls, a mutable cell

    # --- recording -----------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, name, idx, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.run_id)

    @contextmanager
    def span(self, name):
        idx, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, idx, parent, start)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx, parent, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, start)
        return traced

    # --- installing and restoring wrappers -----------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        self.missing = []
        for owner, attr, name in SPAN_TARGETS:
            if attr not in vars(owner):
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._replace(owner, attr, self._wrap(name, getattr(owner, attr)))
        self._install_select()
        self._install_let()
        self._install_debit()

    def _install_select(self):
        if "select_route" not in vars(engine):
            self.missing.append("engine.select_route")
            return
        select = engine.select_route
        counts = self.counts

        def traced_select(protocol, *args, **kwargs):
            idx, parent, start = self._open()
            try:
                route = select(protocol, *args, **kwargs)
            finally:
                self._close(f"protocols.select.{protocol}", idx, parent, start)
            counts["protocols.found"] += route is not None
            return route
        self._replace(engine, "select_route", traced_select)

    def _install_let(self):
        prop = vars(topology.TopologySnapshot).get("let")
        if not isinstance(prop, property):
            self.missing.append("TopologySnapshot.let")
            return
        fget, built = prop.fget, self._let_built

        def traced_let(snap):
            # the matrix is cached per snapshot: only the first access builds it
            if snap in built:
                return fget(snap)
            built.add(snap)
            idx, parent, start = self._open()
            try:
                return fget(snap)
            finally:
                self._close("topology.let", idx, parent, start)
        self._replace(topology.TopologySnapshot, "let",
                      property(traced_let, doc=prop.__doc__))

    def _install_debit(self):
        if "debit" not in vars(energy.EnergyLedger):
            self.missing.append("EnergyLedger.debit")
            return
        debit, cell = energy.EnergyLedger.debit, self.debits

        # a count, not a span: debits are the hottest call in the program
        def counted_debit(ledger, node, category, joules):
            cell[0] += 1
            return debit(ledger, node, category, joules)
        self._replace(energy.EnergyLedger, "debit", counted_debit)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # --- aggregation ---------------------------------------------------------

    def reset(self):
        """Start a new pass; the spans of the last one stay with whoever
        holds them."""
        self.spans = []
        self.counts.clear()
        self.debits[0] = 0

    def summary(self):
        """Per span name: busy seconds, self seconds and call count; and the
        counters (routes found, ledger debits)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
        counts = Counter(self.counts)
        counts["energy.debit"] = self.debits[0]
        return busy, own, calls, counts
