"""The eight checkers against the regression-fixture corpus.

One known-bad fixture per historical bug (PRs 1-10) proves each rule
still catches the mistake it was written for; the known-good fixtures
prove the approved patterns, suppressions, and nested actions do not
false-positive.
"""


def idents(report, rule=None):
    return {f.ident for f in report.findings
            if rule is None or f.rule == rule}


# -- known-bad: one fixture per historical bug -------------------------------


def test_pr1_cleanup_bypass_is_flagged(scan_fixture):
    report = scan_fixture("pr1_cleanup_bypass.py", rules=["action-leak"])
    assert idents(report) == {"action:unguarded"}
    (finding,) = report.findings
    assert finding.symbol == "purge_dead_client"
    assert "no abort on the exception path" in finding.message


def test_pr2_include_guard_leak_is_flagged(scan_fixture):
    report = scan_fixture("pr2_include_guard.py", rules=["action-leak"])
    assert idents(report) == {"action:unguarded"}
    (finding,) = report.findings
    assert finding.symbol == "include_guard"


def test_pr3_binding_narrow_abort_is_flagged(scan_fixture):
    report = scan_fixture("pr3_binding_leak.py", rules=["action-leak"])
    assert idents(report) == {"first:narrow-abort"}
    (finding,) = report.findings
    assert "except Exception" in finding.message


def test_pr4_dropped_fence_is_flagged(scan_fixture):
    report = scan_fixture("pr4_dropped_fence.py", rules=["fence-required"])
    assert idents(report) == {"group_view_db:missing-fence",
                              "group_view_db:fence-none"}


def test_pr5_lock_across_wire_is_flagged(scan_fixture):
    report = scan_fixture("pr5_lock_across_wire.py",
                          rules=["lock-across-wire"])
    assert idents(report) == {"locks.try_lock:across-wire"}


def test_client_plane_in_maintenance_module_is_flagged(scan_fixture):
    report = scan_fixture("bad_sync_plane.py",
                          relpath="src/repro/naming/read_repair.py",
                          rules=["sync-plane"])
    assert {f.ident for f in report.findings} == {
        "self.node.rpc:client-plane-call",
        "client_for:client-plane-client",
    }


def test_coherence_on_the_client_plane_is_flagged(scan_fixture):
    report = scan_fixture("bad_coherence_push.py",
                          relpath="src/repro/naming/coherence.py",
                          rules=["coherence-push"])
    assert {f.ident for f in report.findings} == {
        "self.node.rpc:client-plane-register",
        "self._mcast:client-plane-push",
        "self.node.rpc:client-plane-call",
    }


def test_batch_demux_flags_whole_batch_handlers(scan_fixture):
    report = scan_fixture("bad_batch_demux.py",
                          relpath="src/repro/cluster/store_host.py",
                          rules=["batch-demux"])
    assert {f.ident for f in report.findings} == {
        "write_shadow_many:no-item-guard",
        "discard_shadow_many:no-item-guard",
        "commit_shadow_many:handler-reraises",
    }


def test_batch_demux_accepts_per_item_outcomes(scan_fixture):
    report = scan_fixture("good_batch_demux.py",
                          relpath="src/repro/cluster/store_host.py",
                          rules=["batch-demux"])
    assert report.findings == []


def test_unjittered_and_ambient_backoff_are_flagged(scan_fixture):
    report = scan_fixture("bad_seeded_backoff.py", rules=["seeded-backoff"])
    assert idents(report) == {"self.backoff:unjittered",
                              "delay:ambient-jitter"}
    messages = {f.ident: f.message for f in report.findings}
    assert "lockstep" in messages["self.backoff:unjittered"]
    assert "seeded replay" in messages["delay:ambient-jitter"]


def test_seeded_backoff_patterns_are_silent(scan_fixture):
    report = scan_fixture("good_seeded_backoff.py", rules=["seeded-backoff"])
    assert report.findings == []


def test_determinism_catches_every_banned_source(scan_fixture):
    report = scan_fixture("bad_determinism.py", rules=["determinism"])
    assert idents(report) >= {
        "time.time",
        "random.uniform",
        "datetime.now",
        "import:random.randint",
        "import:time.monotonic",
    }


# -- known-good: approved patterns must stay silent --------------------------


def test_good_patterns_produce_no_findings(scan_fixture):
    report = scan_fixture("good_patterns.py")
    assert report.findings == []
    assert report.suppressed == []


def test_sync_plane_correct_usage_is_silent(scan_fixture):
    report = scan_fixture("good_sync_plane.py",
                          relpath="src/repro/naming/read_repair.py",
                          rules=["sync-plane"])
    assert report.findings == []


def test_coherence_on_the_sync_plane_is_silent(scan_fixture):
    report = scan_fixture("good_coherence_push.py",
                          relpath="src/repro/naming/coherence.py",
                          rules=["coherence-push"])
    assert report.findings == []


def test_coherence_rule_ignores_other_modules(scan_fixture):
    report = scan_fixture("bad_coherence_push.py",
                          relpath="src/repro/naming/other_module.py",
                          rules=["coherence-push"])
    assert report.findings == []
    assert report.files_scanned == 0


def test_maintenance_rule_ignores_other_modules(scan_fixture):
    # The same bad file outside the maintenance modules is out of scope.
    report = scan_fixture("bad_sync_plane.py",
                          relpath="src/repro/cluster/client_helper.py",
                          rules=["sync-plane"])
    assert report.findings == []
    assert report.files_scanned == 0  # no applicable rule -> not scanned


def test_suppressions_move_findings_to_suppressed(scan_fixture):
    report = scan_fixture("good_suppressions.py")
    assert report.findings == []
    assert {f.rule for f in report.suppressed} == {"determinism",
                                                   "lock-across-wire"}


def test_determinism_exempts_rng_module(scan_fixture):
    report = scan_fixture("bad_determinism.py",
                          relpath="src/repro/sim/rng.py",
                          rules=["determinism"])
    assert report.findings == []
