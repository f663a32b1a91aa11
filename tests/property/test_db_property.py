"""Property-based tests for the naming databases.

The central invariant: any interleaving of operations and aborts leaves
the database exactly as if the aborted actions had never run.  A second
one for the shard hosts' anti-entropy index: whatever the interleaving,
a cached partition digest is never stale.
"""

from hypothesis import given, strategies as st

from repro.actions import AtomicAction
from repro.actions.errors import ActionError
from repro.naming import GroupViewDatabase, NamingError, ObjectServerDatabase
from repro.naming.db_base import digest
from repro.storage import Uid

HOSTS = ["h1", "h2", "h3", "h4"]
UID_TEXT = "sys:1"


@st.composite
def db_operations(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=15))):
        kind = draw(st.sampled_from(
            ["insert", "remove", "increment", "decrement", "exclude",
             "include"]))
        host = draw(st.sampled_from(HOSTS))
        ops.append((kind, host))
    return ops


def fresh_db():
    db = GroupViewDatabase()
    boot = AtomicAction()
    db.define_object(boot.id.path, UID_TEXT, ["h1", "h2"], ["h1", "h2"])
    db.commit(boot.id.path)
    return db


def snapshot(db):
    probe = AtomicAction()
    sv = db.get_server_with_uses(probe.id.path, UID_TEXT)
    stv = db.get_view(probe.id.path, UID_TEXT)
    db.abort(probe.id.path)
    return (sv.hosts, tuple(sorted((h, tuple(sorted(c.items())))
                                   for h, c in sv.uses.items())), tuple(stv))


def apply_ops(db, action, ops):
    for kind, host in ops:
        try:
            if kind == "insert":
                db.insert(action.id.path, UID_TEXT, host)
            elif kind == "remove":
                db.remove(action.id.path, UID_TEXT, host)
            elif kind == "increment":
                db.increment(action.id.path, "cn", UID_TEXT, [host])
            elif kind == "decrement":
                db.decrement(action.id.path, "cn", UID_TEXT, [host])
            elif kind == "exclude":
                db.exclude(action.id.path, [(UID_TEXT, [host])])
            else:
                db.include(action.id.path, UID_TEXT, host)
        except (NamingError, ActionError):
            pass  # refused ops are fine; we test state effects


@given(db_operations())
def test_abort_restores_exact_prior_state(ops):
    db = fresh_db()
    before = snapshot(db)
    action = AtomicAction()
    apply_ops(db, action, ops)
    db.abort(action.id.path)
    assert snapshot(db) == before


@given(db_operations(), db_operations())
def test_aborted_action_invisible_to_later_committed_one(ops1, ops2):
    """Run ops1+abort then ops2+commit; equal to just ops2+commit."""
    db_a = fresh_db()
    action1 = AtomicAction()
    apply_ops(db_a, action1, ops1)
    db_a.abort(action1.id.path)
    action2 = AtomicAction()
    apply_ops(db_a, action2, ops2)
    db_a.commit(action2.id.path)

    db_b = fresh_db()
    action3 = AtomicAction()
    apply_ops(db_b, action3, ops2)
    db_b.commit(action3.id.path)

    assert snapshot(db_a) == snapshot(db_b)


@given(db_operations())
def test_commit_then_abort_of_other_action_keeps_committed_state(ops):
    db = fresh_db()
    action = AtomicAction()
    apply_ops(db, action, ops)
    db.commit(action.id.path)
    committed = snapshot(db)
    other = AtomicAction()
    db.abort(other.id.path)  # aborting an empty action changes nothing
    assert snapshot(db) == committed


UIDS = ["sys:1", "sys:2", "sys:3", "sys:4", "sys:5"]


def partition_of(uid_text):
    return int(uid_text.rpartition(":")[2]) % 3


STEPS = st.one_of(
    # A mutator, in the current top-level action or a nested child.
    st.tuples(st.sampled_from(["insert", "remove", "increment", "decrement",
                               "exclude", "include"]),
              st.sampled_from(HOSTS), st.sampled_from(UIDS), st.booleans()),
    # A maintenance install: each half behind, at, or ahead of the
    # local count.
    st.tuples(st.just("install"), st.sampled_from(UIDS),
              st.integers(min_value=-1, max_value=1),
              st.integers(min_value=-1, max_value=1)),
    st.tuples(st.sampled_from(["commit", "abort", "abort_nested", "define",
                               "forget", "purge", "reset"]),
              st.sampled_from(UIDS)))


def fresh_digests(db):
    """Every non-empty partition's digest, recomputed from scratch."""
    rows = {}
    for uid_text in UIDS:
        uid = Uid.parse(uid_text)
        if db.server_db.knows(uid) or db.state_db.knows(uid):
            sv, stv = db.entry_versions(uid_text)
            rows.setdefault(partition_of(uid_text), []).append(
                (uid_text, *sv, *stv))
    return {partition: digest(sorted(part))
            for partition, part in rows.items()}


def step(db, serial, move):
    """Apply one drawn step; returns the next top-level action serial."""
    kind, path = move[0], (serial,)
    if kind == "install":
        _, uid_text, sv_delta, st_delta = move
        sv, stv = db.entry_versions(uid_text)
        db.guarded_install_entry(uid_text, ["h3"], {}, ["h3"], (
            (max(1, sv[0] + sv_delta), sv[1]),
            (max(1, stv[0] + st_delta), stv[1])))
    elif kind == "commit":
        db.commit(path)
        return serial + 1
    elif kind == "abort":
        db.abort(path)
        return serial + 1
    elif kind == "abort_nested":
        db.abort(path + (1,))
    elif kind == "define":
        db.define_object(path, move[1], ["h1", "h2"], ["h1", "h2"])
    elif kind == "forget":
        db.forget_entry(move[1])
    elif kind == "purge":
        db.purge_client(path, "cn")
    elif kind == "reset":
        db.reset_volatile()
        return serial + 1
    else:
        kind, host, uid_text, nested = move
        action_path = path + (1,) if nested else path
        if kind == "increment":
            db.increment(action_path, "cn", uid_text, [host])
        elif kind == "decrement":
            db.decrement(action_path, "cn", uid_text, [host])
        elif kind == "exclude":
            db.exclude(action_path, [(uid_text, [host])])
        else:
            getattr(db, kind)(action_path, uid_text, host)
    return serial


@given(st.lists(STEPS, max_size=40))
def test_cached_partition_digests_match_a_recompute(moves):
    """The anti-entropy index never serves a stale digest: after every
    mutation, undo, install, removal, purge and crash, each cached
    partition digest equals one recomputed from ``entry_versions``."""
    db = GroupViewDatabase(partition_of=partition_of)
    boot = AtomicAction()
    for uid_text in UIDS[:3]:
        db.define_object(boot.id.path, uid_text, ["h1", "h2"], ["h1", "h2"])
    db.commit(boot.id.path)
    serial = 1000
    for move in moves:
        try:
            serial = step(db, serial, move)
        except (NamingError, ActionError, ValueError):
            pass  # refused steps are fine; the index must still hold
        fresh = fresh_digests(db)
        for partition, (cached, _rows) in db._digests.items():
            assert cached == fresh.get(partition), (partition, move)
        assert db.partition_digests() == fresh


@given(db_operations())
def test_no_locks_remain_after_terminal_state(ops):
    db = fresh_db()
    action = AtomicAction()
    apply_ops(db, action, ops)
    db.commit(action.id.path)
    assert not db.server_db.locks.owners()
    assert not db.state_db.locks.owners()


# -- counter moves commute --------------------------------------------------

COUNTER_HOSTS = ["h1", "h2"]
CLIENT_NODES = ["c0", "c1", "c2"]
BASE_USES = 40  # above any run's Decrements: no counter hits the floor


@st.composite
def counter_histories(draw):
    """Actions of Increments and Decrements, each committed or aborted,
    and an interleaving of their steps (each action ends after its
    last move)."""
    actions = draw(st.lists(st.tuples(
        st.lists(st.tuples(st.sampled_from([1, -1]),
                           st.sampled_from(CLIENT_NODES),
                           st.sampled_from(COUNTER_HOSTS)),
                 min_size=1, max_size=5),
        st.booleans()), min_size=2, max_size=4))
    steps = [i for i, (moves, _commit) in enumerate(actions)
             for _ in range(len(moves) + 1)]
    return actions, draw(st.permutations(steps))


def counter_db():
    db = ObjectServerDatabase()
    db.install_entry(Uid.parse(UID_TEXT), COUNTER_HOSTS,
                     {h: dict.fromkeys(CLIENT_NODES, BASE_USES)
                      for h in COUNTER_HOSTS}, (1, 0))
    return db


def counter_db_uses(db):
    probe = AtomicAction()
    uses = db.get_server_with_uses(probe.id.path, Uid.parse(UID_TEXT)).uses
    db.abort(probe.id.path)
    return {host: dict(counters) for host, counters in uses.items()}


def apply_move(db, path, delta, client_node, host):
    move = db.increment if delta > 0 else db.decrement
    move(path, client_node, Uid.parse(UID_TEXT), [host])


@given(counter_histories())
def test_interleaved_counter_moves_end_at_the_committed_sum(history):
    actions, steps = history
    interleaved = counter_db()
    paths = [AtomicAction().id.path for _ in actions]
    done = [0] * len(actions)
    granted: list[list] = [[] for _ in actions]
    for i in steps:
        moves, commit = actions[i]
        if done[i] < len(moves):
            try:  # Increments exclude each other: some are refused
                apply_move(interleaved, paths[i], *moves[done[i]])
                granted[i].append(moves[done[i]])
            except ActionError:
                pass
        else:
            (interleaved.commit if commit else interleaved.abort)(paths[i])
        done[i] += 1

    expected = {h: dict.fromkeys(CLIENT_NODES, BASE_USES)
                for h in COUNTER_HOSTS}
    for i, (_moves, commit) in enumerate(actions):
        for delta, client_node, host in granted[i] if commit else ():
            expected[host][client_node] += delta
    assert counter_db_uses(interleaved) == expected

    # A replica running the same granted moves one action at a time, in
    # the opposite order, ends with the same write version.
    serial = counter_db()
    for i in reversed(range(len(actions))):
        path = AtomicAction().id.path
        for move in granted[i]:
            apply_move(serial, path, *move)
        (serial.commit if actions[i][1] else serial.abort)(path)
    uid = Uid.parse(UID_TEXT)
    assert interleaved.entry_version(uid) == serial.entry_version(uid)
    assert not interleaved.locks.owners() and not interleaved._pending

