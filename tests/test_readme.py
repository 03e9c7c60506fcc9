"""The README's Python examples run as written.

Every ```python block of README.md runs in order, in one namespace (later
blocks use names imported by earlier ones), inside a temporary directory,
since the quickstart writes a model directory.
"""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2  # the library quickstart and the growth example
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"),
             namespace)
    assert (tmp_path / "run1" / "model" / "model.npz").is_file()
