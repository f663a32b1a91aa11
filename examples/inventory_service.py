#!/usr/bin/env python
"""An inventory service on coordinator-cohort replication.

A warehouse inventory object processed by a coordinator with two
standby cohorts, bound through the figure-7 use-list scheme with the
cleanup daemon running.  The demo walks through:

1. reservations flowing through the coordinator (cohorts idle);
2. a coordinator crash between transactions -- the next transaction
   fails over to a cohort without data loss (commit-time checkpoints);
3. a client crash leaving orphaned use-list counters, repaired by the
   cleanup daemon;
4. conservation: reserved + available never changes.

Run:  python examples/inventory_service.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro import (
    CoordinatorCohortReplication,
    DistributedSystem,
    LockMode,
    PersistentObject,
    SystemConfig,
    operation,
)


class Inventory(PersistentObject):
    TYPE_NAME = "examples.Inventory"

    def __init__(self, uid, available=0, reserved=0):
        super().__init__(uid)
        self.available = available
        self.reserved = reserved

    def save_state(self, out):
        out.pack_int(self.available)
        out.pack_int(self.reserved)

    def restore_state(self, state):
        self.available = state.unpack_int()
        self.reserved = state.unpack_int()

    @operation(LockMode.READ)
    def stock(self):
        return {"available": self.available, "reserved": self.reserved}

    @operation(LockMode.WRITE)
    def reserve(self, quantity):
        if quantity > self.available:
            raise ValueError(f"only {self.available} available")
        self.available -= quantity
        self.reserved += quantity
        return self.reserved

    @operation(LockMode.WRITE)
    def release(self, quantity):
        quantity = min(quantity, self.reserved)
        self.reserved -= quantity
        self.available += quantity
        return self.available


def main():
    system = DistributedSystem(SystemConfig(
        seed=99, binding_scheme="independent",
        enable_cleaner=True))
    system.registry.register(Inventory)
    for name in ("w1", "w2", "w3"):
        system.add_node(name, server=True)
    for name in ("d1", "d2"):
        system.add_node(name, store=True)
    clerk = system.add_client("clerk", policy=CoordinatorCohortReplication())
    uid = system.create_object(
        Inventory(system.new_uid(), available=100),
        sv_hosts=["w1", "w2", "w3"], st_hosts=["d1", "d2"])

    def reserve(quantity):
        def work(txn):
            return (yield from txn.invoke(uid, "reserve", quantity))
        return work

    def read_stock(txn):
        return (yield from txn.invoke(uid, "stock"))

    # 1. Normal reservations through the coordinator (w1).
    for quantity in (10, 15):
        result = system.run_transaction(clerk, reserve(quantity))
        print(f"reserve {quantity}: committed={result.committed} "
              f"(total reserved {result.value})")
    w1_host = system.nodes["w1"].rpc.service("servers")
    w2_host = system.nodes["w2"].rpc.service("servers")
    print(f"invocations: w1={w1_host._server(str(uid)).invocations} "
          f"(coordinator), w2={w2_host._server(str(uid)).invocations} (cohort)")

    # 2. Coordinator crashes between transactions: cohort takes over.
    print("\ncrashing the coordinator node w1 ...")
    system.nodes["w1"].crash()
    result = system.run_transaction(clerk, reserve(5))
    print(f"reserve 5 after coordinator crash: committed={result.committed}")
    stock = system.run_transaction(clerk, read_stock, read_only=True)
    print(f"stock (served by a promoted cohort): {stock.value}")

    # 3. A second clerk crashes mid-transaction; the daemon cleans up.
    clumsy = system.add_client("clumsy", policy=CoordinatorCohortReplication())

    def crashy(txn):
        yield from txn.invoke(uid, "reserve", 1)
        system.nodes["clumsy"].crash()
        yield from txn.invoke(uid, "reserve", 1)

    clumsy.transaction(crashy)
    system.run(until=system.scheduler.now + 1.0)
    snapshot = system.db.get_server_with_uses((0,), str(uid))
    system._release_probe_locks()
    orphans = sum(sum(c.values()) for c in snapshot.uses.values())
    print(f"\norphaned use-list counters after clumsy's crash: {orphans}")
    system.run(until=system.scheduler.now + 10.0)
    snapshot = system.db.get_server_with_uses((0,), str(uid))
    system._release_probe_locks()
    orphans = sum(sum(c.values()) for c in snapshot.uses.values())
    print(f"after the cleanup daemon's round:                 {orphans}")

    # 4. Conservation.
    stock = system.run_transaction(clerk, read_stock, read_only=True)
    total = stock.value["available"] + stock.value["reserved"]
    print(f"\nfinal stock: {stock.value} (total {total})")
    assert total == 100, "inventory leaked!"
    print("conservation holds: available + reserved == 100")


if __name__ == "__main__":
    main()
