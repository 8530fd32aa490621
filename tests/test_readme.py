"""The README's library example runs as written and prints what it claims."""

import contextlib
import io
import re
from pathlib import Path

import gfrag

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("## Library", 1)[1].split("\n## ", 1)[0]


def library_block():
    return re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)


def library_names():
    """The names the Library section lists: the example's imports from gfrag,
    and each code span of the prose that is a bare name or a call."""
    section = library_section()
    imported = re.search(r"from gfrag import \((.*?)\)", library_block(), re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        match = re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", span, re.S)
        if match:
            names.add(match.group(1))
    return sorted(names)


def test_every_name_the_library_section_lists_imports_from_gfrag():
    names = library_names()
    assert {"TabulatedKernel", "apply_generator_direct", "stable_step"} <= set(names)
    missing = [name for name in names if name not in gfrag.__all__ or not hasattr(gfrag, name)]
    assert not missing, f"named in the README's Library section but not exported by gfrag: {missing}"


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
