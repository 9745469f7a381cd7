"""The README's Python API and scenario examples run as written."""

import json
import re
from pathlib import Path

from fracspike.scenarios import parse_scenario

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


def test_readme_scenario_example_parses():
    """The README's scenario document passes the schema, top-level keys
    included."""
    (block,) = re.findall(r"```json\n(.*?)```",
                          README.read_text(encoding="utf-8"), re.S)
    sc = parse_scenario(json.loads(block))
    assert sc.mode == "solve_k_spike" and sc.k == 2
