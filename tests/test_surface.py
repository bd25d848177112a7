"""Every public name of ``selbounds`` earns its place.

A name stays exported only while the package itself uses it, the benchmark
harness calls it, or the README's Library section documents it.  Exception
classes and the ``oracle`` module are exempt.
"""

import inspect
import io
import re
import tokenize
from pathlib import Path

import selbounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "selbounds"


def _src_references() -> set[str]:
    """Names used in the package's code, not counting their own def/class
    line, strings, comments or the ``__init__`` re-exports."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        prev = None
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                used.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                prev = tok.string
    return used


def _library_section() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Library", 1)[1].split("\n## ", 1)[0]


def _words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


def test_every_public_name_is_used_or_documented():
    perfbench = _words("".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py")))
    known = _src_references() | perfbench | _words(_library_section())
    unused = [
        name
        for name, obj in vars(selbounds).items()
        if not name.startswith("_")
        and not inspect.ismodule(obj)
        and not (inspect.isclass(obj) and issubclass(obj, Exception))
        and name not in known
    ]
    assert unused == []
