"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import (
    DistributedSystem,
    LockMode,
    PersistentObject,
    SingleCopyPassive,
    SystemConfig,
    operation,
)


class Counter(PersistentObject):
    """The canonical test object: one int, a read op and a write op."""

    TYPE_NAME = "tests.Counter"

    def __init__(self, uid, value: int = 0):
        super().__init__(uid)
        self.value = value

    def save_state(self, out):
        out.pack_int(self.value)

    def restore_state(self, state):
        self.value = state.unpack_int()

    @operation(LockMode.READ)
    def get(self):
        return self.value

    @operation(LockMode.WRITE)
    def add(self, amount):
        self.value += amount
        return self.value


class Register(PersistentObject):
    """A second object type: holds a string."""

    TYPE_NAME = "tests.Register"

    def __init__(self, uid, text: str = ""):
        super().__init__(uid)
        self.text = text

    def save_state(self, out):
        out.pack_string(self.text)

    def restore_state(self, state):
        self.text = state.unpack_string()

    @operation(LockMode.READ)
    def read(self):
        return self.text

    @operation(LockMode.WRITE)
    def write(self, text):
        self.text = text
        return self.text


def build_system(policy=None, scheme: str = "standard",
                 sv=("s1", "s2", "s3"), st=("t1", "t2"),
                 value: int = 100, **config_kwargs):
    """A small standard deployment with one Counter object."""
    config = SystemConfig(seed=config_kwargs.pop("seed", 7),
                          binding_scheme=scheme, **config_kwargs)
    system = DistributedSystem(config)
    system.registry.register(Counter)
    system.registry.register(Register)
    for host in sv:
        system.add_node(host, server=True)
    for host in st:
        system.add_node(host, store=True)
    client = system.add_client("c1", policy=policy or SingleCopyPassive())
    uid = system.create_object(Counter(system.new_uid(), value=value),
                               sv_hosts=list(sv), st_hosts=list(st))
    return system, client, uid


def add_work(uid, amount=1):
    """A transaction body adding ``amount`` to the counter."""
    def work(txn):
        return (yield from txn.invoke(uid, "add", amount))
    return work


def get_work(uid):
    """A read-only transaction body."""
    def work(txn):
        return (yield from txn.invoke(uid, "get"))
    return work


def shard_entry_state(system, shard, uid):
    """One shard replica's committed view of an entry (probe locks
    released)."""
    db = system.db.shards[shard]
    snapshot = db.get_server_with_uses((0,), str(uid))
    view = db.get_view((0,), str(uid))
    system._release_probe_locks()
    return (tuple(snapshot.hosts),
            {h: dict(c) for h, c in snapshot.uses.items()},
            tuple(view))


def assert_shard_replicas_agree(system, uid, replication=2):
    """Every replica shard of ``uid`` holds the same committed entry."""
    replicas = system.shard_router.preference_list(uid, replication)
    states = [shard_entry_state(system, shard, uid) for shard in replicas]
    assert all(state == states[0] for state in states), \
        f"replicas diverge for {uid}: {dict(zip(replicas, states))}"


def lock_holders(locks, resource):
    """``(owner, mode)`` of every lock a ``LockManager`` grants on
    ``resource``, read from its table."""
    return [(held.owner, held.mode) for held in locks._table.get(resource, [])]


def mode_held(locks, owner, resource):
    """The mode ``owner`` holds on ``resource``, or ``None``."""
    return dict(lock_holders(locks, resource)).get(owner)


def cut(network, side, other, heal=False):
    """Partition two host sets from each other, both directions: one
    ``Network.block`` (or, with ``heal``, ``unblock``) per ordered pair."""
    toggle = network.unblock if heal else network.block
    for a in side:
        for b in other:
            toggle(a, b)
            toggle(b, a)


def arm_crash_after_write_ack(system, db, node, method="increment",
                              back_after=None):
    """Doctor ``db.<method>`` to crash ``node`` right after it first
    applies the write -- the acknowledgement, which is the shard's vote,
    is already on the wire, so the crash lands between the write ack
    and ``commit``.  With ``back_after`` the node recovers that much
    later (a restart inside the window, not an outage).  Returns the
    list of action paths it fired on; restore the method with
    ``delattr(db, method)``.
    """
    real_write = getattr(db, method)
    fired = []

    def write_then_die(action_path, *args):
        result = real_write(action_path, *args)
        if not fired:
            fired.append(tuple(action_path))
            system.scheduler.schedule(0.0, node.crash)
            if back_after is not None:
                system.scheduler.schedule(back_after, node.recover)
        return result

    setattr(db, method, write_then_die)
    return fired


@pytest.fixture
def rpc_log(monkeypatch):
    """Every RPC issued from here on, as ``(caller, target, service,
    method, issued_at)`` in issue order -- count messages by method, or
    round trips by distinct simulated issue instant."""
    from repro.net.rpc import RpcAgent

    calls = []
    original = RpcAgent.call

    def call(self, target, service, method, *args, **kwargs):
        calls.append((self.name, target, service, method,
                      self._scheduler.now))
        return original(self, target, service, method, *args, **kwargs)

    monkeypatch.setattr(RpcAgent, "call", call)
    return calls


@pytest.fixture
def counter_cls():
    return Counter


@pytest.fixture
def register_cls():
    return Register
