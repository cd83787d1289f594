"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_ranks_case14():
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope: dict = {}
    exec(compile(code, f"{README}:Library use", "exec"), scope)
    buses = [scope["case"].buses[n] for n in scope["ranking"].nodes]
    assert sorted(buses) == list(range(1, 15))
    assert buses[0] == 9
