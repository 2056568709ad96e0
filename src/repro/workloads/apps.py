"""The six paper applications as workload profiles.

Paper Table 3/4: "the top six downloaded applications from the OPPO App
market, including Toutiao, Taobao, Tomato Novel (Fanqie), Meituan,
Kuaishou, and WeChat", built in speed mode.  Baseline OAT text sizes
were 357M / 225M / 264M / 247M / 612M / 388M.

The generated apps keep the *relative* sizes of the paper's apps (method
counts proportional to the reported OAT sizes) at a laptop-tractable
absolute scale — repro band 2/5: pure-Python mining over real
multi-million-instruction OAT files is out of reach, and the measured
ratios are scale-stable (a bench verifies this).  Per-app seeds make
each app a distinct population of idiom variants, like six different
apps sharing one platform.
"""

from __future__ import annotations

from repro.workloads.appgen import AppSpec, GeneratedApp, generate_app

__all__ = ["APP_NAMES", "PAPER_BASELINE_MB", "app_spec", "default_suite", "generate_suite"]

#: The paper's evaluation order (Tables 1, 4-7).
APP_NAMES = ("Toutiao", "Taobao", "Fanqie", "Meituan", "Kuaishou", "Wechat")

#: Baseline OAT text sizes from Table 4 (MB) — used only to set the
#: *relative* sizes of the generated apps.
PAPER_BASELINE_MB = {
    "Toutiao": 357,
    "Taobao": 225,
    "Fanqie": 264,
    "Meituan": 247,
    "Kuaishou": 612,
    "Wechat": 388,
}

#: Methods per app at scale=1.0: proportional to the paper's sizes,
#: normalised so Taobao (the smallest) has ~220 methods.
_BASE_METHODS = {
    name: round(220 * mb / PAPER_BASELINE_MB["Taobao"])
    for name, mb in PAPER_BASELINE_MB.items()
}

_SEEDS = {name: 1000 + i * 97 for i, name in enumerate(APP_NAMES)}


def app_spec(name: str, scale: float = 1.0) -> AppSpec:
    """The workload spec for one paper app at the given scale."""
    if name not in PAPER_BASELINE_MB:
        raise KeyError(f"unknown app {name!r}; choose from {APP_NAMES}")
    return AppSpec(
        name=name,
        seed=_SEEDS[name],
        num_methods=_BASE_METHODS[name],
    ).scaled(scale)


def generate_suite(scale: float = 1.0, names: tuple[str, ...] = APP_NAMES) -> list[GeneratedApp]:
    """Generate the whole evaluation suite."""
    return [generate_app(app_spec(name, scale)) for name in names]


def default_suite() -> list[GeneratedApp]:
    return generate_suite(1.0)
