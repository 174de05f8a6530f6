"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs_and_certifies():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], f"{README.name} (Library quickstart)", "exec"), namespace)
    cert = namespace["cert"]
    assert cert.audit.violations == 0 and cert.holds
