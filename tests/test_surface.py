"""Every public name of ``selbounds`` earns its place.

A name stays exported only while the package itself uses it, the benchmark
harness calls it, or the README's Library section documents it.  Exception
classes and the ``oracle`` module are exempt.  The same rule holds for the
public methods and properties of the package's classes, where a use in the
package counts only as an attribute read, ``.name``.
"""

import importlib
import inspect
import io
import re
import tokenize
from pathlib import Path

import selbounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "selbounds"


def _src_references(attributes: bool = False) -> set[str]:
    """Names used in the package's code, not counting their own def/class
    line, strings, comments or the ``__init__`` re-exports; with
    ``attributes``, only names read as ``.name``."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        prev = None
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and (
                prev == "." if attributes else prev not in ("def", "class")
            ):
                used.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                prev = tok.string
    return used


def _library_section() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Library", 1)[1].split("\n## ", 1)[0]


def _words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


def _perfbench_words() -> set[str]:
    return _words("".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py")))


def test_every_public_name_is_used_or_documented():
    known = _src_references() | _perfbench_words() | _words(_library_section())
    unused = [
        name
        for name, obj in vars(selbounds).items()
        if not name.startswith("_")
        and not inspect.ismodule(obj)
        and not (inspect.isclass(obj) and issubclass(obj, Exception))
        and name not in known
    ]
    assert unused == []


def _public_classes():
    """Public non-exception classes defined in the package's modules."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"selbounds.{path.stem}")
        for name, cls in vars(module).items():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and not name.startswith("_")
                and not issubclass(cls, Exception)
            ):
                yield cls


def test_every_public_method_is_used_or_documented():
    known = _src_references(attributes=True) | _perfbench_words() | _words(_library_section())
    unused = [
        f"{cls.__name__}.{name}"
        for cls in _public_classes()
        for name, obj in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or isinstance(obj, (property, classmethod, staticmethod)))
        and name not in known
    ]
    assert unused == []
