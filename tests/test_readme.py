"""The README's "Library" example runs as written and prints what its
comments say."""

import re

from conftest import REPO_ROOT


def _library_block() -> str:
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _shown_outputs(code: str) -> list[str]:
    """The output each ``print`` line's comment shows; a comment-only line
    continues the comment above it."""
    shown: list[str] = []
    for line in code.splitlines():
        statement, _, comment = line.partition("#")
        if statement.strip().startswith("print("):
            shown.append(comment.strip())
        elif not statement.strip() and comment and shown:
            shown[-1] += " " + comment.strip()
    return shown


def test_readme_library_example(capsys):
    code = _library_block()
    shown = _shown_outputs(code)
    assert shown[0] == "151" and len(shown) == 3
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
