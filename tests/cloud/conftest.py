"""Shared template fixture for the cloud tests.

``get_template`` caches per-process, so the first test pays the boot +
RSA keygen and every later test — including each ``CloudService``,
whose forked workers inherit the cache copy-on-write — reuses it.
"""

import pytest

from repro.cloud.worker import get_template

#: Must match CloudService's default spec so service tests hit the cache.
SPEC = {
    "engine": "turbo",
    "seed": 0xC10D,
    "secure_pages": 48,
    "step_budget": 2_000_000,
}


#: A step budget far below what a 50,000-iteration spin needs.
TIGHT_BUDGET = 10_000


@pytest.fixture(scope="session")
def template():
    return get_template(SPEC)


@pytest.fixture(scope="session")
def tight_template():
    """The default template but for its step budget (cached like it,
    so a ``CloudService(step_budget=TIGHT_BUDGET)`` reuses it)."""
    return get_template({**SPEC, "step_budget": TIGHT_BUDGET})
