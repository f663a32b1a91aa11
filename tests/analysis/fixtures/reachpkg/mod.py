"""Reach-pass fixture: one function runs, one never does, one is
decorated (its code object starts at the decorator's line)."""


def passthrough(fn):
    return fn


def reached():
    return 1


def unreached():
    return 2


@passthrough
def decorated():
    return 3
