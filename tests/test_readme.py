"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_example_certifies(capsys):
    """The one Python block of README.md runs (it writes no files), and the
    spike its search finds certifies."""
    (block,) = re.findall(r"```python\n(.*?)```",
                          README.read_text(encoding="utf-8"), re.S)
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["newton"].certifies(scope["cfg"])
    assert "True" in capsys.readouterr().out
