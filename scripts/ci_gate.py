#!/usr/bin/env python
"""Ledger-driven regression gate for CI.

``calibro compare`` diffs two entries the caller picks by hand; CI wants
the *unattended* version of that decision: after a pipeline appends its
fresh builds to a ledger, fail the run iff any build regressed against
the last known-good build of the **same** ``(config, label)``.
Two modes:

* **single ledger** (the default): the newest entry per key is the
  candidate and the previous entry for that key is its baseline — the
  pattern of one long-lived ledger that every CI run appends to;

* ``--baseline OTHER.jsonl``: candidates still come from the fresh
  ledger, but baselines come from a separate known-good ledger (e.g.
  one checked in from the release branch).

Keys with no baseline are reported as ``new`` and never fail the gate;
regressions use the same thresholded
:func:`repro.observability.diff.diff_entries` semantics as ``calibro
compare`` (``--threshold``, ``--min-seconds``), so a noisy host needs a
real wall-time jump — not jitter — to go red.  Entries that carry
incremental (``graph``) or merging (``merge``) accounting are gated on
those too: a grown rebuild set or shrunken ``merge.saved_bytes`` fails
the run just like a text-size regression.  Entries whose cache traffic
is non-zero on both sides are additionally gated on the
``service.cache.hit_rate`` derived from their ``cache_hits`` /
``cache_misses`` fields — a warm build quietly going cold (a broken
shared cache, a key-derivation drift, an over-eager eviction) fails
the run before wall time moves on small apps.

    python scripts/ci_gate.py .ci/ledger.jsonl
    python scripts/ci_gate.py fresh.jsonl --baseline known-good.jsonl

Exit status: 0 = no regressions (including "nothing to compare"),
1 = at least one regression (diff tables on stdout), 2 = usage errors
(missing/unreadable ledger).  The module is importable — ``tests/
test_ci_gate.py`` runs the gate in-process so the format cannot rot.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.core.errors import CalibroError  # noqa: E402
from repro.observability.diff import (  # noqa: E402
    DEFAULT_MIN_SECONDS,
    DEFAULT_THRESHOLD,
    diff_entries,
)
from repro.observability.ledger import BuildLedger, LedgerEntry  # noqa: E402


def entry_key(entry: LedgerEntry) -> tuple[str, str]:
    """The gate's identity for a build: entries compare only within the
    same configuration and app label.  Ledger records from before
    schema v5 also carry a mining ``engine``; it is ignored, so they
    gate fresh records of the same ``(config, label)``."""
    return (entry.config, entry.label)


def latest_per_key(entries: list[LedgerEntry]) -> dict[tuple[str, str], LedgerEntry]:
    """Last-written entry for every key (ledger order is append order)."""
    latest: dict[tuple[str, str], LedgerEntry] = {}
    for entry in entries:
        latest[entry_key(entry)] = entry
    return latest


def split_candidates(
    entries: list[LedgerEntry],
) -> dict[tuple[str, str], tuple[LedgerEntry | None, LedgerEntry]]:
    """Single-ledger mode: per key, ``(previous_entry_or_None, latest)``."""
    out: dict[tuple[str, str], tuple[LedgerEntry | None, LedgerEntry]] = {}
    for entry in entries:
        key = entry_key(entry)
        previous = out[key][1] if key in out else None
        out[key] = (previous, entry)
    return out


def run_gate(
    ledger_path: str,
    *,
    baseline_path: str | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    out=None,
) -> int:
    """The whole gate, importable: returns the process exit status.
    ``out`` defaults to the *current* ``sys.stdout`` (resolved per call,
    so test harnesses that swap stdout see the report)."""
    out = out if out is not None else sys.stdout
    path = Path(ledger_path)
    if not path.exists():
        print(f"ci_gate: ledger not found: {path}", file=out)
        return 2
    try:
        entries = BuildLedger(path).entries()
    except CalibroError as exc:
        print(f"ci_gate: unreadable ledger: {exc}", file=out)
        return 2
    if not entries:
        print(f"ci_gate: {path}: empty ledger, nothing to compare", file=out)
        return 0

    if baseline_path is not None:
        base = Path(baseline_path)
        if not base.exists():
            print(f"ci_gate: baseline ledger not found: {base}", file=out)
            return 2
        try:
            baselines = latest_per_key(BuildLedger(base).entries())
        except CalibroError as exc:
            print(f"ci_gate: unreadable baseline ledger: {exc}", file=out)
            return 2
        pairs = {
            key: (baselines.get(key), candidate)
            for key, candidate in latest_per_key(entries).items()
        }
    else:
        pairs = split_candidates(entries)

    failures = 0
    compared = 0
    for key in sorted(pairs):
        before, after = pairs[key]
        name = "/".join(part or "-" for part in key)
        if before is None:
            print(f"{name}: new (no baseline entry) — not gated", file=out)
            continue
        compared += 1
        report = diff_entries(
            before, after, threshold=threshold, min_seconds=min_seconds
        )
        if report.has_regressions:
            failures += 1
            print(f"{name}: REGRESSED", file=out)
            print(report.render(), file=out)
        else:
            print(f"{name}: ok", file=out)
    print(
        f"ci_gate: {compared} key(s) compared, {failures} regression(s)",
        file=out,
    )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail CI when a fresh ledger entry regresses vs the "
        "last known-good entry for the same (config, label)"
    )
    parser.add_argument("ledger", help="JSONL build ledger holding the fresh builds")
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="LEDGER",
        help="separate known-good ledger to gate against (default: the "
        "previous entry per key inside the fresh ledger itself)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative regression threshold (default %(default)s)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="ignore wall-time growth below this many absolute seconds "
        "(default %(default)s)",
    )
    args = parser.parse_args(argv)
    return run_gate(
        args.ledger,
        baseline_path=args.baseline,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
    )


if __name__ == "__main__":
    raise SystemExit(main())
