"""F2 -- Figure 2: the non-replicated configuration |Sv| = |St| = 1.

One server node (alpha), one store node (beta).  Under stochastic
crashes of either node, an action aborts whenever alpha or beta is down
or crashes during execution.  We sweep the node MTTF and report the
commit rate, plus the special case alpha = beta.

Paper claim (shape): availability degrades with the crash rate; every
crash of either node is user-visible (nothing is masked).
"""

import pytest

from repro.workload import Table

from benchmarks.common import build_system, once, run_workload


def run_config(mttf: float, same_node: bool, seed: int = 7):
    if same_node:
        system, runtimes, uid = build_system(sv=["node"], st=["node"],
                                             seed=seed)
        targets = ["node"]
    else:
        system, runtimes, uid = build_system(sv=["alpha"], st=["beta"],
                                             seed=seed)
        targets = ["alpha", "beta"]
    system.stochastic_faults(targets, mttf=mttf, mttr=5.0, stop_after=400.0)
    # ~280 simulated seconds: several MTTFs even at the mildest crash
    # rate, so every row's window has crashes landing on transactions.
    report = run_workload(system, runtimes, uid, txns_per_client=240,
                          mean_think_time=1.0)
    return report


@pytest.mark.benchmark(group="fig2")
def test_fig2_single_copy_availability(benchmark):
    def experiment():
        rows = []
        for mttf in (80.0, 40.0, 20.0):
            separate = run_config(mttf, same_node=False)
            combined = run_config(mttf, same_node=True)
            rows.append((mttf, separate.commit_rate, combined.commit_rate,
                         dict(separate.abort_reasons())))
        return rows

    rows = once(benchmark, experiment)

    table = Table("F2 / figure 2: |Sv|=|St|=1, commit rate vs node MTTF",
                  ["node MTTF", "alpha != beta", "alpha == beta",
                   "abort reasons (separate)"])
    for mttf, separate, combined, reasons in rows:
        table.add_row(mttf, separate, combined, reasons)
    table.show()

    rates = [r[1] for r in rows]
    assert rates == sorted(rates, reverse=True) and rates[0] > rates[-1], \
        "commit rate must degrade with crash rate"
    assert all(rate < 1.0 for rate in rates), \
        "with no replication, crashes must be user-visible"
