#!/usr/bin/env bash
# The size counts that ROADMAP.md and CHANGES.md track, from the checkout
# it is run in:
#
#   scripts/counts.sh [checkout-dir=.]
#
# Prints one `name value` line per count: Rust lines under crates/ src/
# tests/ examples/ shims/, `unsafe` tokens and `SAFETY` comments in the
# same files, `std::env::var(` call sites, and the jobs of the CI workflow.
set -euo pipefail

cd "${1:-.}"
dirs=(crates src tests examples shims)
files() { find "${dirs[@]}" -name '*.rs' -not -path '*/target/*' -print0; }
count() { files | xargs -0 grep -o "$@" | wc -l; }

echo "rust_lines $(files | xargs -0 cat | wc -l)"
echo "unsafe_tokens $(count -w unsafe)"
echo "safety_comments $(count -F SAFETY)"
echo "env_var_sites $(count -F 'std::env::var(')"
# A job is a two-space-indented key under the top-level `jobs:` map.
echo "ci_jobs $(awk '/^[^ #]/ { in_jobs = ($0 ~ /^jobs:/) } in_jobs && /^  [A-Za-z0-9_-]+:/' .github/workflows/*.yml | wc -l)"
