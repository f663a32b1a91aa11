"""The scenario registry and its CLI."""

import pytest

from repro.workload import __main__ as cli
from repro.workload.scenarios import SCENARIOS, clean, run, tiny_rows


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_scenario_is_clean_at_tiny_size(name):
    rows = tiny_rows(name)
    assert rows, f"{name} declares no smoke case"
    for row in rows:
        assert clean(name, row) == []


def test_unknown_parameter_and_mode_are_rejected():
    with pytest.raises(TypeError, match="unknown parameter"):
        run("spread_read", no_such_knob=1)
    with pytest.raises(ValueError, match="unknown gray_failure mode"):
        run("gray_failure", mode="purple")


def test_clean_names_every_violated_expectation():
    row = tiny_rows("sharded_failover")[0]  # the replicated case
    row.update(commit_rate=0.5, resync_done_at=0.0)
    assert clean("sharded_failover", row) == [
        "commit_rate = 0.5 (violated)",
        "resync_after_recovery = None (violated)"]


def test_a_daemon_that_dies_fails_the_run(monkeypatch):
    """This test's include guards die on purpose, one step in: a dead
    daemon fails only its own future, so the run must raise and name
    every one rather than report a row."""
    from repro.cluster.recovery import RecoveryManager
    from repro.sim import Timeout

    def dying_guard(self):
        yield Timeout(self.guard_interval)
        raise AssertionError("guard bug")

    monkeypatch.setattr(RecoveryManager, "_include_guard", dying_guard)
    with pytest.raises(RuntimeError) as raised:
        run("paper_recovery_include", commits_while_down=1)
    message = str(raised.value)
    assert message.startswith("paper_recovery_include: node processes died: ")
    assert "st0:include-guard: AssertionError('guard bug')" in message


# -- the CLI -----------------------------------------------------------------

def test_list_prints_every_scenario(capsys):
    assert cli.main(["list"]) == 0
    assert capsys.readouterr().out.split() == list(SCENARIOS)
    assert len(SCENARIOS) == 23


def test_no_command_lists_and_signals_usage(capsys):
    assert cli.main([]) == 2
    assert "commit_batching" in capsys.readouterr().out


def test_unknown_scenario_is_an_argument_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "no_such_scenario"])
    assert "unknown scenario" in capsys.readouterr().err


def test_run_prints_rows_and_assert_clean_names_the_ledger(capsys, monkeypatch):
    assert cli.main(["run", "spread_read", "--tiny", "--assert-clean"]) == 0
    assert "spread_read: read_policy=spread" in capsys.readouterr().out
    # A dirty row (here: a planted non-zero ledger) must fail the run
    # and name what was violated.
    monkeypatch.setattr(cli, "tiny_rows", lambda name: [
        {**row, "lost_bindings": 3} for row in tiny_rows(name)])
    assert cli.main(["run", "sync_plane", "--tiny", "--assert-clean"]) == 1
    assert "NOT CLEAN: lost_bindings = 3" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [2, 16])
def test_hot_key_churn_keeps_its_throughput_through_the_outage(seed):
    # Under churn a reader's expired pull entry is refetched: one reply
    # from any live replica.  A serial per-replica version probe used
    # to wait out the dark shard host's 5 s rpc_timeout instead, and
    # these seeds read ~130 txn/s (seed 16: p99 5.016 s).
    row = run("hot_key", churn=True, seed=seed)
    assert clean("hot_key", row) == []
    assert row["throughput"] >= 350
    if seed == 16:
        assert row["p99_latency"] < 1.0
