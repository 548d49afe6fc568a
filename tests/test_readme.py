"""Every ```python block in README.md runs as written, so its import paths
and its asserted results cannot go stale."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
    assert capsys.readouterr().out
