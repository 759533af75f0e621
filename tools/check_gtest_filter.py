#!/usr/bin/env python3
"""Fails when any pattern of a --gtest_filter selects zero tests.

A gtest filter that names a suite which does not exist (a typo, or a
suite renamed since the filter was written) is not an error to gtest:
that pattern just selects nothing, and the step stays green while
running less than it claims.  CI runs this before each filtered test
step.

Usage:
  tools/check_gtest_filter.py TEST_BINARY FILTER

Each colon-separated positive pattern of FILTER (everything before a
'-', which starts gtest's negative patterns) is listed on its own with
--gtest_list_tests.  Exits 1 naming every pattern that selects no test,
2 on a usage error or when the binary cannot list its tests.
"""

import subprocess
import sys


def count_tests(binary: str, pattern: str) -> int:
    listing = subprocess.run(
        [binary, "--gtest_list_tests", f"--gtest_filter={pattern}"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    # Suite lines are flush left ("Suite."); test lines are indented.
    return sum(1 for line in listing.splitlines() if line.startswith("  "))


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, test_filter = argv[1], argv[2]
    positive = test_filter.split("-", 1)[0]
    patterns = [p for p in positive.split(":") if p]
    if not patterns:
        print(f"error: no positive pattern in {test_filter!r}", file=sys.stderr)
        return 2
    empty = []
    for pattern in patterns:
        try:
            count = count_tests(binary, pattern)
        except (OSError, subprocess.CalledProcessError) as error:
            print(f"error: cannot list tests of {binary}: {error}",
                  file=sys.stderr)
            return 2
        print(f"{count:5d}  {pattern}")
        if count == 0:
            empty.append(pattern)
    if empty:
        print("error: these patterns select no test: " + " ".join(empty),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
