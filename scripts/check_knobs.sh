#!/usr/bin/env bash
# Keeps the knob inventory honest, by grep alone (no build):
#
#   * every MPT_* variable the code reads through `env::var` under
#     crates/, examples/ or tests/ has a row in README.md's
#     "Environment variables" table, and
#   * every MPT_* row of that table is read somewhere.
#
# A knob nobody documents cannot be found; a row nobody reads is a
# promise the code does not keep. Either one fails the lint job.
set -euo pipefail
cd "$(dirname "$0")/.."

read_vars=$(grep -rhoE --include='*.rs' 'env::var(_os)?\("MPT_[A-Z0-9_]+"' crates examples tests |
    grep -oE 'MPT_[A-Z0-9_]+' | sort -u)
# Rows look like: | `MPT_NAME=value` | consumer | effect |
documented=$(sed -n '/^## Environment variables/,/^## /p' README.md |
    grep -oE '^\| `MPT_[A-Z0-9_]+' | grep -oE 'MPT_[A-Z0-9_]+' | sort -u)

undocumented=$(comm -23 <(echo "$read_vars") <(echo "$documented"))
unread=$(comm -13 <(echo "$read_vars") <(echo "$documented"))

status=0
if [ -n "$undocumented" ]; then
    echo "read by the code but missing from README 'Environment variables':"
    echo "$undocumented" | sed 's/^/  /'
    status=1
fi
if [ -n "$unread" ]; then
    echo "documented in README 'Environment variables' but read nowhere:"
    echo "$unread" | sed 's/^/  /'
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "knobs ok: $(echo "$read_vars" | wc -l) MPT_* variables, all documented, all read"
fi
exit "$status"
