"""Regenerate ``perfbench/expected.json``: the recorded output digests.

``python3 perfbench/record_expected.py`` (from the checkout root)
records, for the default seed 0 and the held-out seed 1:

* mimd-stream: the digest of the 26 result rows, from a serial
  in-context run;
* service-mix: per domain, the digest of the cold job's result rows,
  from the in-process serial path.

Run it only on a commit whose outputs are known good; the benchmark
compares every later run against these digests.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

SEEDS = (0, 1)


def main() -> int:
    import run
    import service_mix as sm
    from child import rows_digest

    expected = {"mimd-stream": {}, "service-mix": {}}
    work = os.path.join(run.ROOT, ".perfbench_work", "record")
    for seed in SEEDS:
        out = run.run_child("mimd-stream", seed, False,
                            os.path.join(work, f"mimd{seed}"), 1)
        expected["mimd-stream"][str(seed)] = out["rows_digest"]
        expected["service-mix"][str(seed)] = {
            domain: rows_digest(sm.reference_rows(kernels, seed))
            for domain, kernels in sm.domains()
        }
    with open(os.path.join(HERE, "expected.json"), "w",
              encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
