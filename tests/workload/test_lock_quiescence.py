"""No lock outlives its action: the quiescence audit's pinned cases.

Before one janitor judged every lock table, these runs ended with locks
their actions would never release: a committed action's lost ``commit``
to a gray name shard, and a crashed client's read locks at the name
node (atomic or not).
"""

import pytest

from repro.workload.scenarios import SCENARIOS, clean, run

PINNED = [
    ("gray_failure", {}),  # its default is also its first smoke case
    ("paper_fig1_divergence", {}),
    *(("paper_fig1_divergence", case)
      for case in SCENARIOS["paper_fig1_divergence"].tiny),
    ("paper_client_crash", {}),
    *(("paper_client_crash", case)
      for case in SCENARIOS["paper_client_crash"].tiny),
]


@pytest.mark.parametrize("name,case", PINNED, ids=[
    f"{name}-{'-'.join(f'{k}={v}' for k, v in case.items()) or 'default'}"
    for name, case in PINNED])
def test_no_lock_outlives_its_action(name, case):
    row = run(name, **case)
    assert row["leaked_locks"] == 0
    assert clean(name, row) == []


def test_the_janitor_alone_releases_lost_told_commits():
    """Without the client re-sending a gray shard's ``commit``
    (``participant_retries`` 0), the janitor still releases every lock
    the lost outcome left: it asks the coordinator, hears "committed"
    and commits the part."""
    row = run("gray_failure", participant_retries=0)
    assert row["leaked_locks"] == 0
    assert clean("gray_failure", row) == []
