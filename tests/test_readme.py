from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import ltakit
from ltakit.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"
ERROR_TYPES = {
    "DataError",
    "IntegrityError",
    "LlmError",
    "ProtocolError",
    "ScriptExhausted",
    "TransportError",
}


def fenced_block(heading: str, language: str) -> str:
    """The first fenced `language` block of the README section under `## heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match, f"no {language} block under '## {heading}'"
    return match.group(1)


def library_use_block() -> str:
    return fenced_block("Library use", "python")


class TestReadmeWalkthrough:
    def test_every_command_runs(self, tmp_path, monkeypatch, capsys):
        commands = [
            shlex.split(line)
            for line in fenced_block("Command-line walkthrough", "sh").replace("\\\n", " ").splitlines()
            if line.strip()
        ]
        assert commands and all(argv[0] == "ltakit" for argv in commands)
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert run(argv[1:]) == 0, (argv, capsys.readouterr().err)
        assert "AR" in capsys.readouterr().out


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
