"""Run records: per-iteration sampler state, particle snapshots, persistence."""

import csv
import json
import time
from dataclasses import dataclass, field, asdict


@dataclass
class IterationRecord:
    l: int
    t: float
    alpha: float
    backend: str
    eps_r: float = None
    n_state: int = None
    n_adjoint: int = None
    n_enriched: int = 0
    certified_max_indicator: float = None
    sweep_passes: int = None  # indicator passes of the greedy sweep this record carries
    sweep_skipped: int = None  # particles that sweep skipped as non-coercive
    sweep_timers: dict = None  # seconds of that sweep's parts, see adaptive.SWEEP_PARTS
    evaluations: int = None  # backend evaluations: factorizations on hifi, online rows on RB
    backtracks: int = None  # halvings from the line search's start step; None when replayed
    clamped: int = 0
    flags: list = field(default_factory=list)
    timers: dict = field(default_factory=dict)  # seconds per phase, see svgd.PHASES
    timestamp: float = field(default_factory=time.time)


class RunLog:
    """Append-only record of one sampler run.

    Keeps one :class:`IterationRecord` per iteration plus particle
    snapshots (needed for trajectory comparisons), and serializes to
    JSON-lines / CSV.
    """

    def __init__(self, meta=None):
        self.meta = dict(meta or {})
        self.records = []
        self.snapshots = []  # (l, particles copy, eta copy)

    def add(self, record):
        if self.records and record.timestamp < self.records[-1].timestamp:
            record.timestamp = self.records[-1].timestamp
        self.records.append(record)

    def snapshot(self, l, particles, eta=None):
        self.snapshots.append((l, particles.copy(), None if eta is None else eta.copy()))

    @property
    def trajectory(self):
        """Particle snapshots stacked as a ``(n_snapshots, M, d)`` array."""
        import numpy as np

        return np.stack([p for _, p, _ in self.snapshots])

    @property
    def alphas(self):
        return [r.alpha for r in self.records]

    # -- persistence ------------------------------------------------------

    @classmethod
    def read_jsonl(cls, path):
        """Meta and iteration records of a log written by :meth:`write_jsonl`."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        log = cls(json.loads(lines[0])["meta"])
        log.records = [IterationRecord(**json.loads(line)) for line in lines[1:]]
        return log

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": self.meta}) + "\n")
            for rec in self.records:
                fh.write(json.dumps(asdict(rec)) + "\n")

    def write_particles_csv(self, path):
        """One row per particle per snapshot: l, m, theta_1..theta_d, eta."""
        d = self.snapshots[0][1].shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["l", "m"] + [f"theta_{j+1}" for j in range(d)] + ["eta"])
            for l, particles, eta in self.snapshots:
                for m, row in enumerate(particles):
                    vals = [repr(float(v)) for v in row]
                    e = "" if eta is None else repr(float(eta[m]))
                    writer.writerow([l, m] + vals + [e])

    def write_phases_csv(self, path):
        """Where the run's time went: one row per phase with its seconds and
        its share of the total, first the pre-loop ``meta["timers"]`` (the
        reduced-basis runs' seeding and initial sweep), then the records'
        phases summed over iterations, then ``total``; last, the greedy
        sweeps' parts summed over the records' ``sweep_timers``, which lie
        within ``initial_sweep`` and ``hook``."""
        rows = dict(self.meta.get("timers", {}))
        for rec in self.records:
            for phase, seconds in rec.timers.items():
                rows[phase] = rows.get(phase, 0.0) + seconds
        rows["total"] = total = sum(rows.values())
        for rec in self.records:
            for part, seconds in (rec.sweep_timers or {}).items():
                rows[f"sweep_{part}"] = rows.get(f"sweep_{part}", 0.0) + seconds
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["phase", "seconds", "share"])
            for phase, seconds in rows.items():
                writer.writerow([phase, repr(seconds), repr(seconds / total) if total else ""])

    def write_history_csv(self, path):
        cols = ["l", "t", "alpha", "eps_r", "n_state", "n_adjoint", "n_enriched", "clamped",
                "evaluations", "backtracks"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for rec in self.records:
                writer.writerow([getattr(rec, c) for c in cols])
