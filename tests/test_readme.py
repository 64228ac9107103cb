"""README's examples, run as written: the command line tour through
cli.main in process, and the library example."""

import io
import shlex
from pathlib import Path

from ellentuck.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, fence):
    """The body of the first block opened by `fence` after `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"{fence}\n", 1)[1].split("```\n", 1)[0]


def _tour():
    """The tour's commands in order: (argv, redirect file or None, the
    output lines shown under the command)."""
    steps = []
    for line in _block("Command line tour", "```").splitlines():
        if line.startswith("$ "):
            words = shlex.split(line[2:])
            assert words[0] == "ellentuck", line
            target = None
            if ">" in words:
                at = words.index(">")
                words, target = words[:at], words[at + 1]
            steps.append((words[1:], target, []))
        elif line:
            steps[-1][2].append(line)
    return steps


def _shows(expected, actual):
    """Whether a README output line shows the actual one: equal, or, where
    it has " ...", equal before and after the elided part."""
    if " ..." not in expected:
        return expected == actual
    head, tail = expected.split(" ...", 1)
    return actual.startswith(head) and actual.endswith(tail)


def test_the_command_line_tour_prints_what_the_readme_shows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = _tour()
    assert len(steps) >= 9
    for argv, target, expected in steps:
        out, err = io.StringIO(), io.StringIO()
        assert main(argv, out=out, err=err) == 0, (argv, err.getvalue())
        if target is not None:
            assert not expected, argv
            (tmp_path / target).write_text(out.getvalue())
            continue
        actual = out.getvalue().splitlines()
        assert len(actual) == len(expected), (argv, actual)
        for shown, got in zip(expected, actual):
            assert _shows(shown, got), (argv, shown, got)


def test_the_library_example_runs():
    code = _block("Library example", "```python")
    assert "pigeonhole" in code
    exec(compile(code, "README.md", "exec"), {})
