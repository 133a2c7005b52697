"""Record ``reference.json``: the digest every op of every workload must reproduce.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit the reference should come
from.  Each workload is built for seeds 0 and 1 and every op (warm-up
included) is run once.  Ops that share a reference key must give the same
digest, so a digest that depends on the seed or the two_point coupling is
refused instead of recorded.
"""
from __future__ import annotations

import json
import sys

from check import REFERENCE_PATH
from run import SRC, git_commit, work_directory

SEEDS = (0, 1)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    digests, sources = {}, {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            with work_directory(name) as workdir:
                warm, ops = workloads.build(name, seed, workdir)
                for op in warm + ops:
                    digest, _ = op.observe(op.call(*op.prepare()))
                    if op.ref_key not in digests:
                        digests[op.ref_key], sources[op.ref_key] = digest, op.label
                    elif digests[op.ref_key] != digest:
                        print(f"error: {op.label} and {sources[op.ref_key]} disagree under "
                              f"{op.ref_key}", file=sys.stderr)
                        return 1
            print(f"recorded {name} seed {seed}", flush=True)
    for key, digest in digests.items():
        if key.startswith("roundtrip/") and not digest["intertwiner"]:
            print(f"error: {key} returned no intertwiner", file=sys.stderr)
            return 1
    doc = {"recorded_at_commit": git_commit(), "seeds": list(SEEDS),
           "digests": dict(sorted(digests.items()))}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
