"""Write ``pins.json``: what the benchmark's correctness checks compare
against.

    PYTHONPATH=src python3 perfbench/pin.py

For ``family_corpus`` it records, for every corpus instance, the
basis-independent results of a request on the instance's own (standard)
basis, and the sha256 of each request's full output under seed 0.  The
census pins are the sha256 of the ``--out`` bytes and the totals of the
reports; they are written as they stand.  Run it only on a commit whose
outputs are known to be right: every later run is judged against it.
"""

from __future__ import annotations

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import corpus  # noqa: E402

CENSUS_PINS = {
    "census_gf2_d3": {
        "sha256": "71982c0690df13d0aa60b5dd112db81027c708be027f357b3b97066b1e418d52",
        "totals": [134217728, 806, 20],
    },
    "census_gf3_d2": {
        "sha256": "9fbbd58fcac8446b13b3378db48671568d75bfdb32a40301a296d00693e8584d",
        "totals": [6561, 41, 4],
    },
}
CENSUS_PINS["census_gf2_d3_w2"] = CENSUS_PINS["census_gf2_d3"]


def main():
    invariants = {}
    for label, obj in corpus.standard_json():
        invariants[label], _ = corpus.request(label, obj)
    digests = {}
    for label, obj in corpus.build(0):
        found, output = corpus.request(label, obj)
        problems = corpus.check(label, found, output, invariants[label], None)
        if problems:
            raise SystemExit("\n".join(problems))
        digests[label] = corpus.digest(output)
    pins = {
        "census": CENSUS_PINS,
        "family_corpus": {"invariants": invariants, "digests_seed0": digests},
    }
    with open(os.path.join(BENCH, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
