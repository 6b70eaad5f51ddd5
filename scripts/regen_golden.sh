#!/usr/bin/env bash
# Regenerates the golden weight digests under tests/golden/.
#
# Run this after an *intentional* change to the deterministic training
# recipe (model init, dataset, optimizer, precision config, schedule)
# or when moving the baseline to a platform whose libm produces
# different exp/ln bits. Review the resulting diff before committing:
# an unexpected digest change means the training stack stopped being
# bit-reproducible.
set -euo pipefail
cd "$(dirname "$0")/.."
MPT_REGEN_GOLDEN=1 cargo test -p conformance --release --test training_replay \
    golden
echo "regenerated:"
git --no-pager diff --stat -- tests/golden/ || true
