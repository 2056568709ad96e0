"""Seeded inputs for the three workloads.

Every input is a pure function of ``(workload, seed, size)``.  The app
generator seeds its per-idiom randomness from the salted built-in
``hash()`` (``repro.workloads.appgen._variant_rng``), so the same spec
yields different apps under different ``PYTHONHASHSEED`` values.  The
benchmark therefore generates only in processes started with
``PYTHONHASHSEED=GEN_HASH_SEED`` (``run.py`` re-executes itself under
it) and hands the program serialized dex documents; the program's own
processes keep random hash seeds.

Each stream opens with a fixed *check set* that does not depend on the
seed, so the exact metrics (text bytes, size reduction, cycles) repeat
bit for bit across seeds; the seeded body that follows varies the
timed load.

Run as a script to print the input digest of one generation::

    PYTHONHASHSEED=0 python3 perfbench/inputs.py --workload cold_builds --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field, replace

#: The hash seed every generating process runs under.
GEN_HASH_SEED = "0"

#: Per-size knobs.  ``full`` is the measured benchmark; ``tiny`` keeps
#: the same shapes at a few seconds per workload for the smoke tests.
SIZES = {
    "full": {
        # cold_builds: check set = the six paper apps at this scale, then
        # seeded distinct apps with method counts spread evenly over
        # [lo, hi] (continuous, so percentiles fall inside the spread).
        "cold_check_scale": 0.3,
        "cold_methods": (60, 180),
        "cold_body": 220,
        "warmup_methods": 30,
        # serve_warm: (apps, method-count range) of the small and the
        # large tier of the universe.
        "warm_small": (9, (60, 120)),
        "warm_large": (2, (560, 600)),
        "warm_stream": 4000,
        # serve_edits: one chain per client.
        "edit_methods": 100,
        "edit_prefix": 3,
        "edit_body": 180,
    },
    "tiny": {
        "cold_check_scale": 0.05,
        "cold_methods": (20, 30),
        "cold_body": 220,
        "warmup_methods": 20,
        "warm_small": (4, (20, 30)),
        "warm_large": (2, (60, 70)),
        "warm_stream": 4000,
        "edit_methods": 40,
        "edit_prefix": 2,
        "edit_body": 120,
    },
}

#: Popularity skew of the serve_warm stream (weight of rank k ∝ 1/(k+1)^s).
ZIPF_S = 1.0
#: serve_warm: one request in LARGE_EVERY goes to the large tier.
LARGE_EVERY = 5
#: serve_edits mutation pattern: four one-method edits, then one method
#: addition.  The fixed 1/5 share puts p50 inside the edit cluster and
#: p90 at the middle of the (slower) addition cluster.
EDIT_KINDS = ("edit",) * 4 + ("add",)
#: Chain base apps of serve_edits, one per client.
EDIT_APPS = ("Toutiao", "Wechat")
#: Seed of the fixed check prefix of every serve_edits chain.
EDIT_PREFIX_SEED = 0

WORKLOADS = ("cold_builds", "serve_warm", "serve_edits")


@dataclass
class Item:
    """One input the program receives, and what the checks need."""

    key: str
    #: Build label sent to the program (the incremental graph's slot).
    label: str
    dexfile: object
    #: The generated app the input derives from: UI script and native
    #: handlers for the emulator-versus-interpreter check.
    app: object
    #: Member of the fixed, seed-independent check set.
    check: bool = False


@dataclass
class WorkloadInputs:
    workload: str
    seed: int
    size: str
    items: dict[str, Item] = field(default_factory=dict)
    #: Keys built during set-up, before the timed window.
    warmup: list[str] = field(default_factory=list)
    #: Request keys in stream order.  One list per client, or a single
    #: list that all clients pull from when ``shared_stream``.
    streams: list[list[str]] = field(default_factory=list)
    shared_stream: bool = False

    def add(self, item: Item) -> str:
        self.items[item.key] = item
        return item.key

    def digest(self) -> str:
        """SHA-256 over every serialized input and the request order."""
        from repro.dex.serialize import dexfile_to_json

        h = hashlib.sha256()
        for key in sorted(self.items):
            item = self.items[key]
            h.update(key.encode())
            h.update(item.label.encode())
            h.update(json.dumps(dexfile_to_json(item.dexfile), sort_keys=True).encode())
            h.update(json.dumps(item.app.ui_script.calls).encode())
            for name in sorted(item.app.native_handlers):
                h.update(f"{name}={item.app.native_handlers[name]([3, 5])}".encode())
        h.update(json.dumps([self.warmup, self.streams, self.shared_stream]).encode())
        return h.hexdigest()


def _check_hash_seed() -> None:
    if os.environ.get("PYTHONHASHSEED") != GEN_HASH_SEED:
        raise RuntimeError(
            f"inputs must be generated under PYTHONHASHSEED={GEN_HASH_SEED}"
        )


def _paper_app(name: str, *, scale: float | None = None, methods: int | None = None):
    """One of the six paper profiles with its canonical seed."""
    from repro.workloads import app_spec, generate_app

    spec = app_spec(name, 1.0 if scale is None else scale)
    if methods is not None:
        spec = replace(spec, num_methods=methods)
    return generate_app(spec)


def _seeded_app(name: str, seed: int, index: int, methods: int):
    """A distinct app around a paper profile: the profile's shape knobs,
    a seed drawn from ``(seed, index)`` and the given method count."""
    from repro.workloads import app_spec, generate_app

    base = app_spec(name, 1.0)
    app_seed = 1_000_003 + seed * 100_003 + index * 7_919
    return generate_app(replace(base, seed=app_seed, num_methods=methods))


def _stratified(rng: random.Random, count: int, lo: int, hi: int, block: int = 20) -> list[int]:
    """``count`` method counts spread evenly over ``[lo, hi]``: each
    block of ``block`` draws takes one value from every stratum, in
    seeded order, so every prefix of the stream has nearly the same
    size distribution whatever the seed."""
    out: list[int] = []
    while len(out) < count:
        strata = list(range(block))
        rng.shuffle(strata)
        for k in strata:
            out.append(round(lo + (hi - lo) * (k + rng.random()) / block))
    return out[:count]


def _cold(inputs: WorkloadInputs, knobs: dict) -> None:
    from repro.workloads import APP_NAMES

    warm = _paper_app("Taobao", methods=knobs["warmup_methods"])
    inputs.warmup.append(inputs.add(Item("cold/warmup", "warmup", warm.dexfile, warm)))
    stream = []
    for name in APP_NAMES:
        app = _paper_app(name, scale=knobs["cold_check_scale"])
        stream.append(inputs.add(Item(f"cold/check/{name}", name, app.dexfile, app, check=True)))
    rng = random.Random(f"cold_builds/{inputs.seed}")
    lo, hi = knobs["cold_methods"]
    for i, methods in enumerate(_stratified(rng, knobs["cold_body"], lo, hi)):
        name = APP_NAMES[i % len(APP_NAMES)]
        app = _seeded_app(name, inputs.seed, i, methods)
        stream.append(inputs.add(Item(f"cold/{i}", f"{name}-{i}", app.dexfile, app)))
    inputs.streams = [stream]


def _weighted_sizes(count: int, lo: int, hi: int) -> list[int]:
    """Method counts for ``count`` popularity ranks, the same for every
    seed: visit the ranks in an interleaved order and give each the size
    at the middle of its cumulative Zipf weight, so the request-weighted
    size mix is close to uniform over ``[lo, hi]``."""
    weights = _zipf(count)
    order = [k for pair in zip(range(count), range(count - 1, -1, -1)) for k in pair]
    order = list(dict.fromkeys(order))[:count]
    sizes = [0] * count
    acc = 0.0
    for k in order:
        sizes[k] = round(lo + (hi - lo) * (acc + weights[k] / 2) / sum(weights))
        acc += weights[k]
    return sizes


def _zipf(count: int) -> list[float]:
    return [1.0 / (k + 1) ** ZIPF_S for k in range(count)]


def _warm(inputs: WorkloadInputs, knobs: dict) -> None:
    from repro.workloads import APP_NAMES

    tiers = []
    index = 0
    for count, (lo, hi) in (knobs["warm_small"], knobs["warm_large"]):
        keys = []
        for size in _weighted_sizes(count, lo, hi):
            # Alternate ranks are the paper profiles with canonical seeds
            # (the check set) and seeded apps.
            name = APP_NAMES[(index // 2) % len(APP_NAMES)]
            if index % 2 == 0:
                app = _paper_app(name, methods=size)
                item = Item(f"warm/check/{index}", f"{name}-u{index}", app.dexfile, app, check=True)
            else:
                app = _seeded_app(name, inputs.seed, index, size)
                item = Item(f"warm/{index}", f"{name}-u{index}", app.dexfile, app)
            keys.append(inputs.add(item))
            index += 1
        tiers.append(keys)
    small, large = tiers
    inputs.warmup = small + large
    rng = random.Random(f"serve_warm/{inputs.seed}")
    stream = list(inputs.warmup)
    rng.shuffle(stream)
    # Every LARGE_EVERY-th request asks for a large app: a fixed share.
    # Large requests outlast small ones stalled by a garbage collection,
    # so p90 lies inside the large-request cluster instead of on the
    # edge between small requests and collection stalls.
    while len(stream) < knobs["warm_stream"]:
        tier = large if len(stream) % LARGE_EVERY == LARGE_EVERY - 1 else small
        stream += rng.choices(tier, weights=_zipf(len(tier)))
    inputs.streams = [stream]
    inputs.shared_stream = True


def _loop_methods(dexfile) -> frozenset[str]:
    """Methods with a backward branch.  The edit stream leaves them
    alone: an edit that nudges a loop's constant by up to 4095 can
    multiply its trip count, and over a long chain the UI script would
    stop resembling the app it started from."""
    return frozenset(
        method.name
        for method in dexfile.all_methods()
        if any(t <= i for i, instr in enumerate(method.code) for t in instr.branch_targets())
    )


def _edits(inputs: WorkloadInputs, knobs: dict) -> None:
    from repro.workloads import diff_stream

    for chain, name in enumerate(EDIT_APPS):
        app = _paper_app(name, methods=knobs["edit_methods"])
        label = f"{name}-chain"
        protected = frozenset(app.entry_points) | _loop_methods(app.dexfile)
        inputs.warmup.append(inputs.add(Item(f"edits/{chain}/v0", label, app.dexfile, app)))
        prefix = diff_stream(
            app.dexfile, steps=knobs["edit_prefix"], seed=EDIT_PREFIX_SEED,
            kinds=EDIT_KINDS, protected=protected,
        )
        versions = [(dex, True) for dex, _ in prefix]
        current = versions[-1][0]
        body = diff_stream(
            current, steps=knobs["edit_body"], seed=1 + inputs.seed * 2 + chain,
            kinds=EDIT_KINDS, protected=protected,
        )
        versions += [(dex, False) for dex, _ in body]
        stream = []
        for v, (dex, check) in enumerate(versions, start=1):
            stream.append(inputs.add(Item(f"edits/{chain}/v{v}", label, dex, app, check=check)))
        inputs.streams.append(stream)


def generate(workload: str, seed: int, size: str = "full") -> WorkloadInputs:
    """All inputs of one workload run.  Requires the generating hash seed."""
    _check_hash_seed()
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs = WorkloadInputs(workload=workload, seed=seed, size=size)
    knobs = SIZES[size]
    {"cold_builds": _cold, "serve_warm": _warm, "serve_edits": _edits}[workload](inputs, knobs)
    return inputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    print(generate(args.workload, args.seed, args.size).digest())
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.exit(main())
