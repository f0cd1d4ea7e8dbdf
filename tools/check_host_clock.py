#!/usr/bin/env python3
"""Lint: no host clock reads under src/.

The runtime's simulated clocks are charged from modeled constants and from
counted work (CountWork in src/util/sim_clock.h), never from the host's
time: a host clock read makes every simulated number follow the host's load,
and a per-thread CPU-time read is a syscall that costs more than most of the
work it would measure. This lint fails on any of

    clock_gettime   CLOCK_THREAD_CPUTIME_ID   gettimeofday
    std::chrono::<clock>::now

in code under src/ (comments and string literals are ignored). Host wall
time belongs in benches and tools, which are not scanned.

Allowed: the non-x86 fallback of ReadCycles in src/util/cpu.h, which stands
in for rdtsc (used by telemetry's real-TSC timers, never by a SimClock).

Usage: check_host_clock.py [repo_root]
Exits nonzero with a report on any violation.
"""

import os
import re
import sys

SCAN_DIR = "src"
EXTENSIONS = (".h", ".cc", ".cpp")

FORBIDDEN_RE = re.compile(
    r"\bclock_gettime\b|\bCLOCK_THREAD_CPUTIME_ID\b|\bgettimeofday\b|"
    r"\bchrono\s*::\s*\w+\s*::\s*now\b|"
    r"\b(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b"
)

# (path relative to the repo root, code line with the match) pairs that may
# read a host clock.
ALLOWED = {
    ("src/util/cpu.h", "clock_gettime(CLOCK_MONOTONIC, &ts);"),
}


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string literals, keeping line numbers."""

    def blank(match):
        return re.sub(r"[^\n]", " ", match.group(0))

    pattern = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:[^"\\\n]|\\.)*"', re.DOTALL)
    return pattern.sub(blank, text)


def scan(root: str):
    violations = []
    base = os.path.join(root, SCAN_DIR)
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if not name.endswith(EXTENSIONS):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as f:
                code = strip_comments_and_strings(f.read())
            for lineno, line in enumerate(code.splitlines(), 1):
                if FORBIDDEN_RE.search(line) and (rel, line.strip()) not in ALLOWED:
                    violations.append("%s:%d: %s" % (rel, lineno, line.strip()))
    return violations


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    root = os.path.abspath(root)
    if not os.path.isdir(os.path.join(root, SCAN_DIR)):
        print("check_host_clock: no %s/ under %s" % (SCAN_DIR, root), file=sys.stderr)
        return 2
    violations = scan(root)
    if violations:
        print("check_host_clock: host clock reads under src/ (charge counted work "
              "through CountWork instead):", file=sys.stderr)
        for v in violations:
            print("  " + v, file=sys.stderr)
        return 1
    print("check_host_clock: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
