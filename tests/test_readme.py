from __future__ import annotations

import ast
import re
from pathlib import Path

import ltakit

README = Path(__file__).resolve().parents[1] / "README.md"
ERROR_TYPES = {
    "DataError",
    "IntegrityError",
    "LlmError",
    "ProtocolError",
    "ScriptExhausted",
    "TransportError",
}


def library_use_block() -> str:
    """The fenced python block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under '## Library use'"
    return match.group(1)


class TestReadmeLibraryUse:
    def test_example_runs(self, capsys):
        exec(compile(library_use_block(), "README.md", "exec"), {})
        assert "EvalReport" in capsys.readouterr().out

    def test_package_exports_exactly_the_documented_names(self):
        imported = {
            alias.name
            for node in ast.walk(ast.parse(library_use_block()))
            if isinstance(node, ast.ImportFrom) and node.module == "ltakit"
            for alias in node.names
        }
        assert imported
        assert set(ltakit.__all__) == imported | ERROR_TYPES
        assert len(ltakit.__all__) == len(set(ltakit.__all__))
        for name in ltakit.__all__:
            assert hasattr(ltakit, name), name
