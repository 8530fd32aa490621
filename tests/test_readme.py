"""The README's library example runs as written and prints what it claims."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_prints_its_comments():
    code = library_block()
    # each print line states its output in a trailing comment; "..." ends a prefix
    claims = [line.split("#", 1)[1].strip() for line in code.splitlines()
              if line.startswith("print(") and "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(claims) >= 1
    for claim, line in zip(claims, printed):
        assert line.startswith(claim.removesuffix("...")), (claim, line)
        if not claim.endswith("..."):
            assert line == claim
