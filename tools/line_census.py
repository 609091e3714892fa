"""List the executable lines of src/ that no test and no benchmark config reaches.

Usage, from anywhere:

    python3 tools/line_census.py

Under one sys.settrace/threading.settrace trace it runs the tier-1 suite
(`python -m pytest -q --continue-on-collection-errors` over the whole
checkout) and then `coneyamabe <kind> --config ... --threads 1` on every
perfbench/configs file, writing their outputs to a temporary directory.
It then prints every executable line of src/ that neither the suite nor a
config reached, grouped by the innermost function that holds it, and their
count.  A line is executable when the compiler gave it bytecode
(code.co_lines()).  This is a census, not a test: it pins no count and
exits 0 whatever it finds.  Standard library only (the suite itself needs
pytest, as always); the package is imported from this checkout's src/ after
the trace starts, so module-level lines count too.
"""

from __future__ import annotations

import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _tracer(hits: set):
    """Global trace function recording (file, line) hits in frames under src/."""
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    return trace


def run_suite() -> int:
    """The tier-1 suite as `python -m pytest` runs it; its exit status."""
    argv = sys.argv
    sys.argv = ["pytest", str(ROOT), "-q", "--continue-on-collection-errors",
                "-p", "no:cacheprovider"]
    try:
        runpy.run_module("pytest", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return int(exc.code or 0)
    finally:
        sys.argv = argv
    return 0


def run_configs() -> dict[str, int]:
    """Every perfbench config through the CLI; exit code per config."""
    from coneyamabe import cli

    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((ROOT / "perfbench" / "configs").glob("*.cfg")):
            kind = cli.parse_config(str(path)).kind
            out = Path(tmp) / path.stem
            codes[path.name] = cli.main([kind, "--config", str(path), "--out", str(out),
                                         "--threads", "1"])
    return codes


def _code_objects(code, depth=0):
    yield code, depth
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const, depth + 1)


def unreached(hits: set) -> dict[tuple[str, str], list[int]]:
    """(file, function) -> unreached executable lines, over every file of src/."""
    groups: dict[tuple[str, str], list[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        filename = str(path)
        module = compile(path.read_text(), filename, "exec")
        owner: dict[int, tuple[int, str]] = {}  # line -> (depth, qualname) of innermost code
        for code, depth in _code_objects(module):
            name = "<module>" if depth == 0 else code.co_qualname
            for _, _, line in code.co_lines():
                if line is not None and owner.get(line, (-1, ""))[0] < depth:
                    owner[line] = (depth, name)
        rel = str(path.relative_to(ROOT))
        for line in sorted(owner):
            if (filename, line) not in hits:
                groups.setdefault((rel, owner[line][1]), []).append(line)
    return groups


def main() -> int:
    sys.path.insert(0, str(SRC))
    hits: set = set()
    trace = _tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        suite = run_suite()
        configs = run_configs()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    groups = unreached(hits)
    sources = {}
    print()
    for (rel, name), lines in groups.items():
        text = sources.setdefault(rel, (ROOT / rel).read_text().splitlines())
        print(f"{rel}  {name}  ({len(lines)})")
        for line in lines:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print()
    print(f"tier-1 suite exit status {suite}; config exit codes "
          + ", ".join(f"{name} {code}" for name, code in configs.items()))
    print(f"{sum(len(v) for v in groups.values())} unreached executable lines "
          f"in {len(groups)} functions of src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
