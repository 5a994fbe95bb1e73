"""The six run-level performance metrics and cross-replication aggregation."""

import csv
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, fields

from .energy import METERED_CATEGORIES


@dataclass
class MetricsReport:
    route_transitions: float = 0.0   # mean discoveries per session
    hop_count: float = 0.0           # time-averaged hops per path
    delay_per_packet: float = None   # seconds; None when nothing delivered
    energy_per_packet: float = None  # Joules;  None when nothing delivered
    fairness_stddev: float = 0.0     # Joules, population stddev per node
    first_failure_time: float = None # seconds; None if no node died


def route_transitions(routes, sessions):
    """Mean number of route discoveries per session (initial one included)."""
    counts = defaultdict(int)
    for r in routes:
        counts[r.session] += 1
    if not sessions:
        return 0.0
    return sum(counts[s.id] for s in sessions) / len(sessions)


def time_averaged_hop_count(routes, sessions, end_time):
    """Per-session lifetime-weighted mean hop count, then mean over sessions.

    Sessions with zero total route lifetime are excluded.
    """
    weighted = defaultdict(float)
    lifetime = defaultdict(float)
    for r in routes:
        life = (r.torn_down_at if r.torn_down_at is not None else end_time)
        life -= r.discovered_at
        weighted[r.session] += r.hops * life
        lifetime[r.session] += life
    per_session = [weighted[sid] / lifetime[sid]
                   for sid in sorted(lifetime) if lifetime[sid] > 0.0]
    if not per_session:
        return 0.0
    return statistics.fmean(per_session)


def delay_per_packet(packets, kappa):
    delays = [p.total_delay(kappa) for p in packets if p.delivered]
    if not delays:
        return None
    return statistics.fmean(delays)


def energy_per_packet(ledger, delivered_count):
    """Data, MAC and discovery Joules per delivered packet; beacons excluded
    (they are identical across protocols)."""
    if delivered_count == 0:
        return None
    consumed = math.fsum(ledger.category_total(cat)
                         for cat in METERED_CATEGORIES)
    return consumed / delivered_count


def fairness_stddev(node_energies):
    """Population standard deviation of per-node consumed energy."""
    return statistics.pstdev(node_energies)


def compute_report(result, kappa=None):
    if kappa is None:
        kappa = result.config.kappa
    delivered = sum(1 for p in result.packets if p.delivered)
    return MetricsReport(
        route_transitions=route_transitions(result.routes, result.sessions),
        hop_count=time_averaged_hop_count(result.routes, result.sessions,
                                          result.end_time),
        delay_per_packet=delay_per_packet(result.packets, kappa),
        energy_per_packet=energy_per_packet(result.ledger, delivered),
        fairness_stddev=fairness_stddev(result.ledger.node_totals()),
        first_failure_time=result.first_failure_time,
    )


def aggregate(reports):
    """Per-field mean and sample stddev across replications.

    Fields that are None in some replications are averaged over the present
    values; all-None fields stay None. A field present in only one report
    has no sample stddev, so its stddev is None: one report is its own mean,
    with every stddev None. Returns (mean report, stddev report).
    """
    means, stds = {}, {}
    for fld in fields(MetricsReport):
        values = [getattr(r, fld.name) for r in reports
                  if getattr(r, fld.name) is not None]
        if not values:
            means[fld.name] = stds[fld.name] = None
        else:
            means[fld.name] = statistics.fmean(values)
            stds[fld.name] = statistics.stdev(values) if len(values) > 1 else None
    return MetricsReport(**means), MetricsReport(**stds)


# --- independent recomputation from raw CSVs ----------------------------------

def recompute_from_csv(packets_path, routes_path, ledger_path, end_time):
    """Rebuild the report from the per-run CSV files, independent of the
    in-process records. Delay uses the service column as written (already at
    the run's contention coefficient)."""
    sessions = set()
    delays, delivered = [], 0
    with open(packets_path, newline="") as f:
        for row in csv.DictReader(f):
            sessions.add(int(row["session"]))
            if row["delivered_s"]:
                delivered += 1
                delays.append(float(row["delivered_s"]) - float(row["created_s"]))
    counts = defaultdict(int)
    weighted = defaultdict(float)
    lifetime = defaultdict(float)
    with open(routes_path, newline="") as f:
        for row in csv.DictReader(f):
            sid = int(row["session"])
            counts[sid] += 1
            torn = float(row["torn_down_s"]) if row["torn_down_s"] else end_time
            life = torn - float(row["discovered_s"])
            weighted[sid] += int(row["hops"]) * life
            lifetime[sid] += life
    totals, metered, deaths = [], [], []
    with open(ledger_path, newline="") as f:
        for row in csv.DictReader(f):
            totals.append(float(row["total_J"]))
            metered += (float(row[f"{cat}_J"]) for cat in METERED_CATEGORIES)
            if row["died_s"]:
                deaths.append(float(row["died_s"]))
    per_session = [weighted[sid] / lifetime[sid]
                   for sid in sorted(lifetime) if lifetime[sid] > 0.0]
    n_sessions = len(sessions) if sessions else 1
    return MetricsReport(
        route_transitions=sum(counts.values()) / n_sessions,
        hop_count=statistics.fmean(per_session) if per_session else 0.0,
        delay_per_packet=statistics.fmean(delays) if delays else None,
        energy_per_packet=(math.fsum(metered) / delivered) if delivered else None,
        fairness_stddev=statistics.pstdev(totals),
        first_failure_time=min(deaths, default=None),
    )


def relative_close(a, b, tol=1e-9):
    if a is None or b is None:
        return a is b or (a is None) == (b is None)
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)
