"""List the executable lines of src/ that no test and no benchmark config
reaches, and count those that only direct calls of the package reach.

Usage, from anywhere:

    python3 tools/line_census.py

Under one sys.settrace/threading.settrace trace it runs the tier-1 suite
(`python -m pytest -q --continue-on-collection-errors` over the whole
checkout) and then `coneyamabe <kind> --config ... --threads 1` on every
perfbench/configs file, writing their outputs to a temporary directory.
It then prints every executable line of src/ that neither the suite nor a
config reached, grouped by the innermost function that holds it, and their
count.  Second, it counts the executable lines that run only while no
call of cli.main is in progress, that is only when a test calls the
package directly, never through a command; it prints their count per
function and in all.  A call of cli.main counts for every thread while it
runs, so the worker threads of a dichotomy sweep count as command runs,
and the package's import counts as a command's, since every command
imports it.  A line is executable when the
compiler gave it bytecode (code.co_lines()).  This is a census, not a
test: it pins no count and exits 0 whatever it finds.  Standard library
only (the suite itself needs pytest, as always); the package is imported
from this checkout's src/ after the trace starts, so module-level lines
count too.
"""

from __future__ import annotations

import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _tracer(hits: set, command_hits: set):
    """Global trace function recording (file, line) hits in frames under
    src/, into command_hits as well while a call of cli.main is running;
    returned with the one-item list holding the count of such calls."""
    prefix = str(SRC)
    cli_file = str(SRC / "coneyamabe" / "cli.py")
    running = [0]  # calls of cli.main in progress, on any thread

    def record(frame):
        key = (frame.f_code.co_filename, frame.f_lineno)
        hits.add(key)
        if running[0]:
            command_hits.add(key)

    def local(frame, event, arg):
        if event == "line":
            record(frame)
        return local

    def main_local(frame, event, arg):
        # "return" also ends a call that raises
        if event == "return":
            running[0] -= 1
        local(frame, event, arg)
        return main_local

    def trace(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        if code.co_filename == cli_file and code.co_qualname == "main":
            running[0] += 1
            record(frame)
            return main_local
        record(frame)
        return local

    return trace, running


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


def executable_lines() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, line) -> (path relative to the checkout, qualname of the
    innermost code holding it) for every executable line of src/."""
    lines = {}
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
            lines[(filename, line)] = (rel, owner[line][1])
    return lines


def grouped(lines: dict, keys) -> dict[tuple[str, str], list[int]]:
    """(file, function) -> line numbers, for (file, line) keys of lines,
    the map executable_lines() returns."""
    groups: dict[tuple[str, str], list[int]] = {}
    for key in sorted(keys, key=lambda k: (lines[k][0], k[1])):
        rel, name = lines[key]
        groups.setdefault((rel, name), []).append(key[1])
    return groups


def main() -> int:
    sys.path.insert(0, str(SRC))
    hits: set = set()
    command_hits: set = set()
    trace, running = _tracer(hits, command_hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        running[0] += 1
        import coneyamabe.cli  # noqa: F401  the import every command makes
        running[0] -= 1
        suite = run_suite()
        configs = run_configs()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    lines = executable_lines()
    groups = grouped(lines, (key for key in lines if key not in hits))
    direct = grouped(lines, (key for key in lines if key in hits and key not in command_hits))
    sources = {}
    print()
    for (rel, name), found in groups.items():
        text = sources.setdefault(rel, (ROOT / rel).read_text().splitlines())
        print(f"{rel}  {name}  ({len(found)})")
        for line in found:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print()
    print("lines reached only outside cli.main, per function:")
    for (rel, name), found in direct.items():
        print(f"  {rel}  {name}  ({len(found)})")
    print()
    print(f"tier-1 suite exit status {suite}; config exit codes "
          + ", ".join(f"{name} {code}" for name, code in configs.items()))
    print(f"{sum(len(v) for v in groups.values())} unreached executable lines "
          f"in {len(groups)} functions of src/")
    print(f"{sum(len(v) for v in direct.values())} of {len(lines)} executable lines "
          f"of src/ are reached only outside cli.main")
    return 0


if __name__ == "__main__":
    sys.exit(main())
