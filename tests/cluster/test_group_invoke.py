"""Tests for client-side group invocation."""

import pytest

from repro import ActiveReplication, DistributedSystem, SystemConfig
from repro.cluster.group_invoke import GroupInvoker
from repro.cluster.server_host import GROUP_REPLY_KIND, SERVER_SERVICE

from tests.conftest import Counter


def make_world(n_replicas=3, seed=3):
    system = DistributedSystem(SystemConfig(seed=seed))
    system.registry.register(Counter)
    hosts = [f"a{i}" for i in range(1, n_replicas + 1)]
    for host in hosts:
        system.add_node(host, server=True)
    system.add_node("t1", store=True)
    client_node = system.add_node("client")
    invoker = GroupInvoker(client_node)
    uid = system.create_object(Counter(system.new_uid(), value=0),
                               sv_hosts=hosts, st_hosts=["t1"])

    # Activate and group-join every replica directly.
    def setup():
        for host in hosts:
            yield client_node.rpc.call(host, SERVER_SERVICE, "activate",
                                       (900,), str(uid), ["t1"])
        for host in hosts:
            yield client_node.rpc.call(host, SERVER_SERVICE, "join_group",
                                       str(uid), hosts)

    system.scheduler.run_until_settled(system.scheduler.spawn(setup()),
                                       until=100.0)
    return system, invoker, uid, hosts


def invoke(system, invoker, hosts, uid, op, args=(), action=(901,)):
    def body():
        return (yield from invoker.invoke(hosts, uid, action, op, args))
    return system.scheduler.run_until_settled(
        system.scheduler.spawn(body()), until=100.0)


def test_all_replicas_respond():
    system, invoker, uid, hosts = make_world()
    result = invoke(system, invoker, hosts, uid, "add", (5,))
    assert sorted(result.responders) == sorted(hosts)
    assert result.any_success
    assert result.first_value() == 5


def test_every_replica_executed():
    system, invoker, uid, hosts = make_world()
    invoke(system, invoker, hosts, uid, "add", (1,))
    invoke(system, invoker, hosts, uid, "add", (1,))
    for host in hosts:
        server_host = system.nodes[host].rpc.service("servers")
        assert server_host._server(str(uid)).invocations == 2


def test_crashed_member_missing_from_responders():
    system, invoker, uid, hosts = make_world()
    system.nodes["a2"].crash()
    result = invoke(system, invoker, hosts, uid, "add", (1,))
    assert "a2" not in result.responders
    assert set(result.responders) == {"a1", "a3"}
    assert result.any_success


def test_error_replies_collected():
    system, invoker, uid, hosts = make_world()
    # A conflicting action holds the object lock everywhere.
    invoke(system, invoker, hosts, uid, "add", (1,), action=(950,))
    result = invoke(system, invoker, hosts, uid, "add", (1,), action=(951,))
    assert not result.any_success
    error_type, _ = result.first_error()
    assert error_type == "LockRefused"


def test_sequencer_down_no_responders():
    system, invoker, uid, hosts = make_world()
    system.nodes["a1"].crash()  # a1 sequences the group
    result = invoke(system, invoker, hosts, uid, "add", (1,))
    assert result.responders == []


def test_late_replies_after_window_ignored():
    system, invoker, uid, hosts = make_world()
    result = invoke(system, invoker, hosts, uid, "add", (1,))
    # Run on; stray replies must not corrupt the closed request table.
    system.run(until=system.scheduler.now + 5)
    assert len(result.responders) == 3


# -- the reply window closes on the view, not on a head count -------------------


WINDOW = 0.5


def timed_invoke(system, invoker, hosts, uid, during=None):
    """``(result, simulated seconds the invocation took)``; ``during``
    runs a fifth of a window in, while the replies are being collected."""
    started = system.scheduler.now
    if during is not None:
        system.scheduler.schedule(WINDOW / 5, during)
    result = invoke(system, invoker, hosts, uid, "add", (1,))
    return result, system.scheduler.now - started


def make_windowed_world():
    system, invoker, uid, hosts = make_world()
    system.nodes["client"].rpc.default_timeout = WINDOW
    return system, invoker, uid, hosts


def test_returns_as_soon_as_every_member_has_answered():
    system, invoker, uid, hosts = make_windowed_world()
    result, took = timed_invoke(system, invoker, hosts, uid)
    assert sorted(result.responders) == sorted(hosts)
    assert took < WINDOW / 2


def test_a_silent_member_costs_the_whole_window():
    system, invoker, uid, hosts = make_windowed_world()
    system.nodes["a3"].crash()
    result, took = timed_invoke(system, invoker, hosts, uid)
    assert set(result.responders) == {"a1", "a2"}
    assert took == pytest.approx(WINDOW)


def test_a_non_member_or_duplicate_reply_never_closes_the_window():
    """a3 is silent; a stranger's reply and a second reply from a1 bring
    the head count to three, but not the view: the window stays open."""
    system, invoker, uid, hosts = make_windowed_world()
    system.nodes["a3"].crash()

    def forge():
        request_id = max(invoker._open)
        for sender, member in (("t1", "t1"), ("a1", "a1")):
            system.nodes[sender].nic.send("client", GROUP_REPLY_KIND, {
                "request_id": request_id, "member": member,
                "ok": True, "value": 99})

    result, took = timed_invoke(system, invoker, hosts, uid, during=forge)
    assert sorted(result.responders) == ["a1", "a2"]
    assert result.values == {"a1": 1, "a2": 1}
    assert took == pytest.approx(WINDOW)
