"""Shared fixtures: packaged data files and a small synthetic instrument."""

from __future__ import annotations

from pathlib import Path

import pytest

from sdrkit.core import (
    GfcBlock,
    Inventory,
    Item,
    ItemPool,
    TraitDomain,
    load_inventory,
    load_item_pool,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "sdrkit" / "data"


def _openblas_configs() -> list[str]:
    """``get_config`` of every OpenBLAS mapped into this process (numpy's and,
    once ``scipy.linalg`` is loaded, scipy's): version, build options and the
    core it dispatched to. Empty without ``/proc/self/maps``."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    configs = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                configs.append(f"{Path(path).name}: {get().decode()}")
                break
    return configs


def pytest_report_header(config) -> list[str]:
    """Name the numpy SIMD targets and OpenBLAS cores this host dispatches to:
    the recorded fit, draw and gradient digests are byte-stable per target and
    core, so a log of a digest failure says which kind of host ran it."""
    import numpy as np
    import scipy.linalg  # noqa: F401  maps scipy's OpenBLAS, which L-BFGS-B calls
    from numpy._core import _multiarray_umath as umath

    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return [
        f"numpy {np.__version__} SIMD: baseline {' '.join(umath.__cpu_baseline__)}, "
        f"dispatch {' '.join(active) or 'none'}",
        *(f"OpenBLAS {c}" for c in _openblas_configs() or ["not found"]),
    ]


def pytest_terminal_summary(terminalreporter, config) -> None:
    """``-q`` (Tier-1's way of running) hides the report header, so print the
    same lines after the results."""
    if config.get_verbosity() < 0:
        terminalreporter.write_sep("-", "host")
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def marker_pool() -> ItemPool:
    return load_item_pool(DATA_DIR / "marker_inventory_pool.csv")


@pytest.fixture(scope="session")
def marker_inventory() -> Inventory:
    return load_inventory(DATA_DIR / "marker_inventory_blocks.csv")


def small_instrument() -> tuple[ItemPool, Inventory]:
    """Ten items (two per trait, mixed keying) paired into five blocks."""
    spec = [
        ("a1", TraitDomain.A, +1, 6.0),
        ("a2", TraitDomain.A, -1, 4.0),
        ("c1", TraitDomain.C, +1, 6.1),
        ("c2", TraitDomain.C, -1, 3.9),
        ("e1", TraitDomain.E, +1, 5.9),
        ("e2", TraitDomain.E, -1, 4.1),
        ("n1", TraitDomain.N, +1, 4.2),
        ("n2", TraitDomain.N, -1, 5.8),
        ("o1", TraitDomain.O, +1, 6.2),
        ("o2", TraitDomain.O, -1, 3.8),
    ]
    items = tuple(
        Item(id=i, text=f"statement {i}", domain=d, keying=k, desirability=s)
        for i, d, k, s in spec
    )
    pool = ItemPool(items)
    pairs = [("a1", "c1"), ("c2", "e2"), ("e1", "n2"), ("n1", "o2"), ("o1", "a2")]
    blocks = tuple(
        GfcBlock(l, r, abs(pool.get(l).desirability - pool.get(r).desirability))
        for l, r in pairs
    )
    return pool, Inventory(blocks)


@pytest.fixture(scope="session")
def small_pool_inventory() -> tuple[ItemPool, Inventory]:
    return small_instrument()
