"""tests/linetrace.py names a line that no traced process ran, in a subprocess too, and no line that one did."""

import sys

import linetrace

TINY = """\
def sign(x):
    if x < 0:
        return -1
    return 1


print(sign(2), [sign(v) for v in (3, 4)])
"""


def test_the_trace_names_the_one_branch_no_process_ran(tmp_path):
    watch, site = tmp_path / "watched", tmp_path / "site"
    watch.mkdir()
    site.mkdir()
    (watch / "tiny.py").write_text(TINY, encoding="utf-8")
    status, ran = linetrace.run_traced([sys.executable, str(watch / "tiny.py")], tmp_path, site, watch)
    assert status == 0
    assert linetrace.unrun(watch, ran, tmp_path) == ["watched/tiny.py:3: return -1"]
