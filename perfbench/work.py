"""Worker process for ``report_grid``: one cold pass over the quick grids.

Started by ``run.py`` with ``PYTHONPATH=src``; prints one JSON line.
Without ``--measure`` it stops after set-up (import, grid specs) and
reports only its timings, so the orchestrator can take the median of
several cold set-ups.  With ``--measure`` it then runs one cold pass
through ``run_sweeps(..., spool=<fresh>, workers=0)`` on a fresh cache,
as one ``repro report`` invocation would, under the tracer when
``--spans-out`` is given, and finally an untimed warm re-probe of the
cache that pass filled.

Set-up is timed from ``--spawned-at``, the orchestrator's
``time.monotonic()`` just before it started this process (the clock is
system-wide), to the first timed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from benchlib import emit, peak_rss_kib

# The quick grids `repro report` runs through the sweep layer.
GRID_EXPERIMENTS = ("E1", "E2", "E8", "E9", "E11", "E12", "E13", "E14", "E15")


class ReportGrid:
    def __init__(self, seed, workdir):
        from repro.harness.registry import get_sweep_spec
        from repro.io.results import payload_to_dict
        from repro.sweeps import scheduler
        from repro.sweeps.cache import SweepCache

        self.scheduler = scheduler
        self.payload_to_dict = payload_to_dict
        self.workdir = Path(workdir)
        self.cache = SweepCache(self.workdir / "cache")
        self.specs = [get_sweep_spec(e)(quick=True, seed=seed) for e in GRID_EXPERIMENTS]
        self.points = sum(len(s.points) for s in self.specs)
        self.env = {
            "grid_points": self.points,
            "grid_hosts": len({p.host for s in self.specs for p in s.points}),
        }

    def _run(self, spool):
        return self.scheduler.run_sweeps(
            self.specs, cache=self.cache, spool=self.workdir / spool, workers=0, strict=False
        )

    def _digests(self, outcomes):
        """One digest per point, ``None`` for a ``SweepError``."""
        digests = []
        for outcome in outcomes:
            for payload in outcome.ensembles:
                if isinstance(payload, self.scheduler.SweepError):
                    digests.append(None)
                else:
                    text = json.dumps(self.payload_to_dict(payload), sort_keys=True)
                    digests.append(hashlib.sha256(text.encode()).hexdigest())
        return digests

    def measure(self):
        """One cold pass over the whole grid."""
        t0 = time.perf_counter()
        outcomes = self._run("spool")
        elapsed = time.perf_counter() - t0
        self.reference = self._digests(outcomes)
        return {
            "s": elapsed,
            "work": self.points,
            "attempted": self.points,
            "failed": self.reference.count(None),
        }

    def finish(self):
        """Untimed warm re-probe of the pass's cache: every point hits
        and gives the bytes the cold pass gave."""
        outcomes = self._run("spool-warm")
        digests = self._digests(outcomes)
        misses = sum(o.stats.misses for o in outcomes)
        mismatches = sum(d is None or d != r for d, r in zip(digests, self.reference))
        return {
            "attempted": self.points,
            "failed": misses + mismatches,
            "digests": self.reference,
        }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--measure", action="store_true", help="run one cold pass after set-up")
    ap.add_argument("--spans-out", default=None, help="trace the pass; spans go here")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0
    grid = ReportGrid(args.seed, args.workdir)
    out = {"setup_s": time.monotonic() - args.spawned_at, "import_s": import_s}
    if not args.measure:
        emit(out)
        return 0

    if args.spans_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            out["pass"] = grid.measure()
        finally:
            tracer.uninstall()
        tracer.dump(args.spans_out, {"process.import_s": import_s})
    else:
        out["pass"] = grid.measure()
    out["finish"] = grid.finish()
    out["env"] = grid.env
    out["peak_rss_kib"] = peak_rss_kib()
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
