#!/usr/bin/env python3
"""Fails when a library header is reached by no bench, example or perfbench.

    python3 tools/check_reachable_headers.py

Run from anywhere; paths are resolved against the repository root. Starting
from every bench/*.cpp, examples/*.cpp and perfbench/src/* file, follows
`#include "..."` lines (resolved against the including file's directory,
then src/). Reaching a header src/<module>/<name>.h also follows its
src/<module>/<name>.cc, whose includes the linked binary needs too. Every
src/*/*.h outside that closure is printed and the script exits 1, unless it
is listed in ALLOWED below with its reason.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

# Headers kept although no bench reaches them yet, with the reason.
ALLOWED = {
    "fleet/runtime.h": "the threaded fleet driver; ROADMAP item 6 wires it "
                       "into a conformance bench",
}


def resolve(name, including):
    for base in (including.parent, SRC):
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def closure(roots):
    seen = set()
    stack = list(roots)
    while stack:
        path = stack.pop()
        if path in seen:
            continue
        seen.add(path)
        for name in INCLUDE.findall(path.read_text()):
            target = resolve(name, path)
            if target is not None:
                stack.append(target)
        if path.suffix == ".h" and path.parent.parent == SRC:
            impl = path.with_suffix(".cc")
            if impl.is_file():
                stack.append(impl)
    return seen


def main():
    roots = (sorted((ROOT / "bench").glob("*.cpp")) +
             sorted((ROOT / "examples").glob("*.cpp")) +
             sorted(p for p in (ROOT / "perfbench" / "src").iterdir()
                    if p.is_file()))
    reached = closure(roots)
    unreached = [h for h in sorted(SRC.glob("*/*.h"))
                 if h not in reached
                 and h.relative_to(SRC).as_posix() not in ALLOWED]
    for header in unreached:
        print(f"unreachable: src/{header.relative_to(SRC).as_posix()} is "
              "included by no bench, example or perfbench source")
    if unreached:
        return 1
    print(f"ok: {len(roots)} roots reach every src/*/*.h "
          f"(allowed: {', '.join(sorted(ALLOWED))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
