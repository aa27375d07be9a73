"""README's library example runs as written, from the repository root."""

import re

from conftest import DATA_DIR

ROOT = DATA_DIR.parent


def test_library_example_finds_the_oracle_front(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    names = {}
    exec(blocks[0], names)
    found = sorted(o.as_tuple() for o in names["report"].front.objectives())
    exact = sorted(o.as_tuple() for o in names["exact"].front.objectives())
    assert found == exact and len(exact) == 3
    assert len(capsys.readouterr().out.splitlines()) == 3
