#!/bin/sh
# Counts Rust code lines per package and in total — the number the ROADMAP
# standing rule makes every simplification PR report.
#
# A code line is a non-blank line that does not start with `//` (after
# indentation). It is a *test* line if its file lives under a `tests/`,
# `benches/` or `examples/` directory or is a `tests.rs` (the out-of-line
# `#[cfg(test)] mod tests;`), or if it sits at or below the file's first
# unindented `#[cfg(test)]` — the test module at the foot of a file. An
# indented `#[cfg(test)]` gates one item inside an `impl` or a `struct` and
# leaves the lines after it what they were. Every other code line is
# *non-test*.
#
# Usage: scripts/code_lines.sh [ROOT]   (default: the repository root)
set -eu

root=${1:-$(dirname "$0")/..}
cd "$root"

# One unit per package: the workspace crates, the shims, the benchmark
# package, and the facade (`src`, which owns the root `tests/` and
# `examples/`).
units=$(ls -d crates/*/ shims/*/ benchmark/ 2>/dev/null | sed 's|/$||')

count() { # count NAME DIR...
    name=$1
    shift
    find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort | xargs awk -v name="$name" '
        FNR == 1 { in_test = (FILENAME ~ /(^|\/)((tests|benches|examples)\/|tests\.rs$)/) }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        /^[ \t]*$/ || /^[ \t]*\/\// { next }
        { if (in_test) test++; else code++ }
        END { printf "%s %d %d\n", name, code, test }
    ' /dev/null
}

{
    for unit in $units; do
        count "$unit" "$unit"
    done
    count src src tests examples
} | awk '
    BEGIN { printf "%-20s %9s %9s %9s\n", "package", "non-test", "test", "all" }
    { printf "%-20s %9d %9d %9d\n", $1, $2, $3, $2 + $3; code += $2; test += $3 }
    END { printf "%-20s %9d %9d %9d\n", "total", code, test, code + test }
'
