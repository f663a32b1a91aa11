"""Tests for group views."""

import pytest

from repro.net import GroupView


def test_of_builder_and_contains():
    view = GroupView.of("a", "b")
    assert "a" in view and "c" not in view
    assert len(view.members) == 2
    assert list(view) == ["a", "b"]


def test_duplicate_members_rejected():
    with pytest.raises(ValueError):
        GroupView(("a", "a"))


def test_empty():
    assert GroupView(()).empty
    assert not GroupView.of("a").empty
