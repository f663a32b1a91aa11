"""The line counter CI reports: prose must not move the number."""

from benchmarks.code_lines import code_lines

SOURCE = '''"""Module docstring,
two lines."""

import os  # a trailing comment does not hide the code

# a comment-only line


def f(x):
    """Docstring."""
    text = """a string that is data,
    not a docstring"""
    return (x,
            text)
'''


def test_blank_comment_and_docstring_lines_are_not_code():
    # import, def, the two-line string assignment, the two-line return.
    assert code_lines(SOURCE) == 6


def test_deleting_prose_does_not_change_the_count():
    stripped = SOURCE.replace('    """Docstring."""\n', "").replace(
        "# a comment-only line\n", "")
    assert code_lines(stripped) == code_lines(SOURCE)
