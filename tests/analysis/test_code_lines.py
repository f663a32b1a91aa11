"""The line counter CI reports: prose must not move the number."""

from benchmarks.code_lines import code_lines, main

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


def test_a_path_that_does_not_exist_is_an_error_not_a_zero_row(
        tmp_path, capsys):
    # The number a "less code" claim rests on must not be fakeable by a
    # typo (``--help`` included: it is read as a path).
    (tmp_path / "real.py").write_text("x = 1\n")
    assert main([str(tmp_path / "real.py")]) == 0
    assert "| **total** | | **1** |" in capsys.readouterr().out
    assert main([str(tmp_path / "real.py"), str(tmp_path / "typo")]) != 0
    captured = capsys.readouterr()
    assert "typo" in captured.err and "total" not in captured.out
