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


def _table(header: str):
    """The (first cell, second cell) rows of the README table under
    ``header``."""
    text = README.read_text()
    for line in text[text.index(header):].splitlines()[2:]:
        if not line.startswith("|"):
            break
        yield tuple(cell.strip() for cell in line.strip("|").split("|"))


def test_key_table_matches_the_reads_table():
    # each row of README's "keys read" table against pipeline.READS, or,
    # for a solver, the config keys behind the solver_opts it reads; each
    # row of its "keys left unread" table against pipeline.UNREAD_WHEN
    from aksvd import ksvd, pipeline
    rows = {}
    for reader, keys in _table("| command, method or solver | keys read |"):
        words = reader.replace("`", "").split()
        if words[0] == "--solver":
            name = ("solver", words[1])
        elif words[0] == "--method":
            name = words[1]
        else:
            name = words[0] if len(words) == 1 else (words[0], words[2])
        assert name not in rows, reader
        rows[name] = set(re.findall(r"`([^`]+)`", keys))
    expected = {name: set(keys) for name, keys in pipeline.READS.items()}
    expected.update({("solver", solver): set(pipeline._solver_keys(solver)
                                              .values())
                     for solver in ksvd.SOLVER_OPTS})
    assert rows == expected
    unread = {}
    for setting, keys in _table("| key and value | keys left unread |"):
        key, *value = re.findall(r"`([^`]+)`", setting)
        unread[key, value[0] if value else setting.split()[-1]] = tuple(
            re.findall(r"`([^`]+)`", keys))
    assert unread == pipeline.UNREAD_WHEN
