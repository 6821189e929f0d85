"""The documentation names only code that exists.

Every backticked dotted name in README.md, and in the docstrings and
comments of the package's modules, whose first part is a ``polycascade``
module or class (``cascade._row_chunks``, ``TrainingBuffers.fitting``) must
resolve by attribute lookup, so a renamed or deleted function leaves no
stale reference behind.
"""

import importlib
import inspect
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import polycascade

PACKAGE = Path(polycascade.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
# perfbench metric names, file names and file suffixes that start like a module name
SKIPPED_SUFFIXES = (".self_s", ".calls", ".csv", ".py", ".ini", ".json", ".phc1")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.\w+)+")


def roots() -> dict:
    """The package, its modules and the classes they define, by name."""
    found = {"polycascade": polycascade}
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"polycascade.{info.name}")
        found[info.name] = module
        found.update((name, cls) for name, cls in inspect.getmembers(module, inspect.isclass)
                     if cls.__module__ == module.__name__)
    return found


def readme_spans() -> list[str]:
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    return re.findall(r"`([^`\n]+)`", text)


def source_spans(path: Path) -> list[str]:
    """Double-backticked spans of a module's docstrings, other strings and comments."""
    with path.open() as f:
        texts = [tok.string for tok in tokenize.generate_tokens(f.readline)
                 if tok.type in (tokenize.STRING, tokenize.COMMENT)]
    return re.findall(r"``([^`]+)``", "\n".join(texts))


def unresolved(spans: list[str], known: dict) -> list[str]:
    missing = []
    for span in spans:
        match = DOTTED.match(span)
        if match is None or match.group().endswith(SKIPPED_SUFFIXES):
            continue
        first, *rest = match.group().split(".")
        if first not in known:
            continue
        obj = known[first]
        for part in rest:
            if not hasattr(obj, part):
                missing.append(match.group())
                break
            obj = getattr(obj, part)
    return missing


def test_docs_name_only_code_that_exists():
    known = roots()
    stale = [f"README.md: {name}" for name in unresolved(readme_spans(), known)]
    for path in sorted(PACKAGE.glob("*.py")):
        stale += [f"{path.name}: {name}" for name in unresolved(source_spans(path), known)]
    assert stale == []


def test_a_stale_name_is_found():
    known = roots()
    assert unresolved(["cascade._no_such_helper", "linalg.run_parallel(items, work_sets, task)",
                       "TrainingBuffers.fitting", "Package.no_such_method", "np.errstate",
                       "cascade.forward_batch.self_s", "metrics.csv"], known) == [
        "cascade._no_such_helper", "Package.no_such_method"]
