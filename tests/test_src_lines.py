from src_lines import count_lines

SOURCE = '''"""Module docstring,
two lines."""

import os  # a comment


def f(x):
    """Function docstring."""
    # a comment line
    s = """not a docstring,
    an assigned string"""
    return x, s
'''


def test_count_lines_skips_docstrings_comments_and_blank_lines():
    # Code lines: import, def, the two lines of the assigned string, return.
    assert count_lines(SOURCE) == (12, 5)
    assert count_lines("") == (0, 0)
