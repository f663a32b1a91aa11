"""F1-F8, E1-E6 -- the paper's own evaluation, on the scenario runner.

Every experiment is a sweep of one ``paper_*`` scenario
(:mod:`repro.workload.scenarios`): the scenario declares the deployment,
the churn or crash script, the ledger audit and what a clean *row* is;
an :class:`Experiment` here names the sweep points, the columns of the
printed table (titled by the scenario's own first doc line), and the
paper's shape claims that relate one point to another.
``docs/architecture.md`` ("Benchmarks") maps each experiment to its
paper section.  Rows land in ``BENCH_paper_figures.json``; the
regression gate holds every ``commit_rate`` in it.
"""

from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Sequence

import pytest

from repro.workload import Table
from repro.workload.scenario import expecting
from repro.workload.scenarios import POLICIES, SCENARIOS, clean, run

from benchmarks.common import once


@dataclass(frozen=True)
class Experiment:
    scenario: str
    #: label -> the point's overrides, or a list of them: trials whose
    #: numeric fields are averaged into one row.
    points: dict[str, Any]
    columns: Sequence[str]  # row fields to tabulate; ``a.b`` is row[a][b]
    claims: Callable[[dict], list[str]] = expecting()  # over {label: row}


def averaged(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """One row from several trials: numbers (booleans as rates) are
    averaged, a nested row with the same fields in every trial (E4's
    one per policy) likewise, anything else is the first trial's."""
    if len(rows) == 1:
        return rows[0]

    def mean(values: list[Any]) -> Any:
        if all(isinstance(value, (int, float)) for value in values):
            return sum(values) / len(values)
        if all(isinstance(value, dict) and value.keys() == values[0].keys()
               for value in values):
            return averaged(values)
        return values[0]

    return {key: mean([row[key] for row in rows]) for key in rows[0]}


def more(field: str, high: str, low: str, slack: float = 0.0):
    """The claim that ``field`` is larger at point ``high`` than at
    ``low`` -- or, with ``slack`` for noise, not that much smaller."""
    if slack:
        return lambda t: t[high][field] >= t[low][field] - slack
    return lambda t: t[high][field] > t[low][field]


SEEDS = (7, 8, 9)
BINDING = ["committed", "offered", "wasted_binds", "db_write_locks",
           "mean_latency", "sv_after"]
AVAILABILITY = ["commit_rate", "masked", "stores_excluded", "lost_bindings",
                "abort_reasons"]

EXPERIMENTS = {
    "fig1": Experiment(
        "paper_fig1_divergence",
        {label: [dict(reliable_multicast=reliable, seed=1000 + i,
                      crash_offset=0.001 + (i / 20) * 0.012)  # sweep the window
                 for i in range(20)]
         for label, reliable in (("naive", False), ("reliable", True))},
        ["diverged"],
        expecting(
            baseline_exhibits_divergence=lambda t: t["naive"]["diverged"] > 0,
            reliable_multicast_prevents_it=lambda t: (
                t["reliable"]["diverged"] == 0))),
    "fig2": Experiment(
        "paper_fig2_single_copy",
        {f"mttf {mttf:g}{', alpha = beta' * colocated}":
             dict(mttf=mttf, colocated=colocated)
         for mttf in (80.0, 40.0, 20.0) for colocated in (False, True)},
        AVAILABILITY,
        expecting(commit_rate_degrades_with_crash_rate=lambda t: (
            t["mttf 80"]["commit_rate"] >= t["mttf 40"]["commit_rate"]
            >= t["mttf 20"]["commit_rate"] < t["mttf 80"]["commit_rate"]))),
    "fig3": Experiment(
        "paper_fig3_replicated_state",
        {str(st): [dict(st=st, seed=seed) for seed in SEEDS]
         for st in (1, 2, 3, 4)},
        AVAILABILITY,
        expecting(
            replicating_state_masks_store_crashes=more("commit_rate", "3", "1"),
            more_stores_never_hurt=more("commit_rate", "4", "2", slack=0.02),
            exclusion_is_the_mechanism=lambda t: t["3"]["stores_excluded"] > 0)),
    "fig4": Experiment(
        "paper_fig4_replicated_servers",
        {str(sv): dict(sv=sv) for sv in (1, 2, 3, 4)},
        AVAILABILITY,
        expecting(
            server_replication_masks_server_crashes=more(
                "commit_rate", "3", "1"),
            masking_occurs_at_3=lambda t: t["3"]["masked"] > 0,
            one_server_masks_nothing=lambda t: t["1"]["masked"] == 0)),
    "fig5": Experiment(
        "paper_fig5_general_case",
        {f"{sv}x{st}": [dict(sv=sv, st=st, seed=seed) for seed in SEEDS]
         for sv in (1, 2, 3) for st in (1, 2, 3)},
        AVAILABILITY,
        expecting(
            general_case_beats_non_replicated=more("commit_rate", "3x3", "1x1"),
            server_axis_helps=more("commit_rate", "3x1", "1x1"),
            store_axis_helps=more("commit_rate", "1x3", "1x1"),
            diagonal_dominates_server_axis=more(
                "commit_rate", "3x3", "3x1", slack=0.05),
            diagonal_dominates_store_axis=more(
                "commit_rate", "3x3", "1x3", slack=0.05))),
    "fig6": Experiment(
        "paper_binding_schemes",
        {"healthy": dict(clients=4, crash=False),
         **{f"{n} clients, sv0 dead": dict(clients=n) for n in (2, 4, 8)}},
        BINDING,
        expecting(dead_server_probe_inflates_latency=more(
            "mean_latency", "2 clients, sv0 dead", "healthy"))),
    "fig7": Experiment(
        "paper_binding_schemes",
        {"standard": dict(), "independent": dict(scheme="independent"),
         "independent, the first binding": dict(
             scheme="independent", clients=1, rounds=1, seed=9)},
        BINDING,
        expecting(fresh_sv_is_paid_for_with_db_write_locks=more(
            "db_write_locks", "independent", "standard"))),
    "fig7_contention": Experiment(
        "paper_binding_contention",
        {"6 clients": dict()},
        ["commit_rate", "retries", "lock_refusals", "decrement_refusals"]),
    "fig8": Experiment(
        "paper_binding_schemes",
        {"independent": dict(scheme="independent"),
         "nested_top_level": dict(scheme="nested_top_level"),
         "nested_top_level, client aborts": dict(
             scheme="nested_top_level", clients=1, rounds=1, sv=2,
             client_aborts=True, seed=5)},
        BINDING,
        expecting(same_freshness_same_cost=lambda t: all(
            t["nested_top_level"][field] == t["independent"][field]
            for field in ("wasted_binds", "db_write_locks", "committed")))),
    "e1_exclude_write_lock": Experiment(
        "paper_exclude_write_lock",
        {f"{n} readers, {'exclude-write' if mode else 'plain write'} lock":
             dict(readers=n, use_exclude_write_lock=mode)
         for n in (0, 1, 3) for mode in (False, True)},
        ["writer_committed", "abort_reason", "promotion_refusals"]),
    "e2_read_optimisation": Experiment(
        "paper_read_optimisation",
        {"full group": dict(single_server=False), "single server": dict()},
        ["commit_rate", "bind_attempts", "servers_activated", "store_writes"],
        expecting(single_server_binding_cuts_bind_rpcs=more(
            "bind_attempts", "full group", "single server"))),
    "e3_recovery_include": Experiment(
        "paper_recovery_include",
        {f"{n} commits while down": dict(commits_while_down=n)
         for n in (1, 3, 6)},
        ["include_window", "states_refreshed", "versions_equal", "version"]),
    "e4_policy_comparison": Experiment(
        "paper_policy_comparison",
        {"seed 7": dict(),
         "seeds 7-12": [dict(seed=seed) for seed in range(7, 13)]},
        [f"{policy}.{field}" for field in ("first_try_rate", "masked")
         for policy in POLICIES],
        # A group masks the crash of any member but its sequencer (the
        # first bound member; every multicast is submitted through it),
        # whose crash silences the group and aborts the action just as
        # the crash of single copy's one server does.  Equal exposure:
        # the two first-try rates are not ordered, and agree to within
        # the noise of the sample.  One run's 60 actions cannot carry
        # that, so it is compared over six seeds, 360 actions a policy,
        # at three standard deviations of the difference of two such
        # samples at ~0.95: 3 * sqrt(2 * 0.95 * 0.05 / 360)
        # (docs/architecture.md, "E4").
        expecting(first_try_within_sequencer_exposure=lambda t: more(
            "first_try_rate", "active", "single_copy_passive",
            slack=0.05)(t["seeds 7-12"]))),
    "e5_binding_lifetime": Experiment(
        "paper_binding_lifetime",
        {"single copy": dict(), "active": dict(policy="active", sv=3)},
        ["in_flight_committed", "in_flight_reason", "group",
         "retry_committed"]),
    "e6_nonatomic_nameserver": Experiment(
        "paper_client_crash",
        {"atomic": dict(), "nonatomic": dict(nonatomic_name_server=True),
         "atomic + cleanup daemon": dict(enable_cleaner=True)},
        ["st_after_exclude", "orphans_at_crash", "orphans_after"],
        expecting(both_modes_need_the_cleanup_daemon=lambda t: (
            t["nonatomic"]["orphans_after"]
            >= t["atomic"]["orphans_after"] > 0))),
}


@pytest.mark.benchmark(group="paper")
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_paper_experiment(benchmark, name):
    experiment = EXPERIMENTS[name]

    def trials(overrides):
        rows = [run(experiment.scenario, **case) for case in
                (overrides if isinstance(overrides, list) else [overrides])]
        for row in rows:
            assert clean(experiment.scenario, row) == [], row
        return averaged(rows)

    rows = once(benchmark, lambda: {label: trials(overrides) for label,
                                    overrides in experiment.points.items()})

    title = SCENARIOS[experiment.scenario].doc.splitlines()[0]
    table = Table(f"{name}: {title}", ["point", *experiment.columns])
    for label, row in rows.items():
        table.add_row(label, *(reduce(lambda value, key: value[key],
                                      column.split("."), row)
                               for column in experiment.columns))
    table.show()
    assert experiment.claims(rows) == []
