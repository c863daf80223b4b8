"""Acceptance suite: one test per check in ``ruwitness.selftest.CHECKS``.

``ruwitness selftest`` runs the same registry from the command line, so
the two cannot drift apart.  Every acceptance tolerance and input set is
pinned in ``src/ruwitness/selftest.py``; this file adds none.  Run with
``pytest tests/test_acceptance.py -v``.
"""

import pytest

from ruwitness.selftest import CHECKS


@pytest.mark.parametrize(
    "check", [fn for _, fn in CHECKS], ids=[fn.__name__.removeprefix("check_") for _, fn in CHECKS]
)
def test_invariant(check):
    check()
