"""The labels of fixed runs against the digests in ``golden_labels.json``.

A change that is meant to leave every label alone must pass this as it
stands; see ``golden_labels.py`` for the runs and how to regenerate them.
"""

import json

import pytest

from golden_labels import PATH, records, runs


def test_runs_keep_their_golden_labels():
    golden, groups = json.loads(PATH.read_text()), runs()
    assert sorted(golden) == sorted(name for group in groups for name in group)
    moved = {}
    for group in groups:
        for name, got in records(group).items():
            want = golden[name]
            # the margin is a float, whose last bits depend on the BLAS build
            got["min_margin"] = pytest.approx(got["min_margin"], rel=1e-6)
            changed = [key for key in want if got[key] != want[key]]
            if changed:
                moved[name] = changed
    assert moved == {}
