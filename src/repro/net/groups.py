"""Versioned group membership views.

A :class:`GroupView` is an ordered list of member names plus a version
number.  The replication layer uses views to know which replicas form a
group; the naming layer's ``Sv``/``St`` sets are exactly such views made
persistent (paper section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GroupView:
    """An immutable membership snapshot.

    Member order is significant: deterministic protocols (sequencer
    election, coordinator choice) pick members by list position.
    """

    members: tuple[str, ...]
    version: int = 0

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in view: {self.members}")

    @staticmethod
    def of(*members: str) -> "GroupView":
        return GroupView(tuple(members), version=0)

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def __iter__(self):
        return iter(self.members)

    @property
    def empty(self) -> bool:
        return not self.members
