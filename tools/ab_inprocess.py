"""Back-to-back A/B timing of two checkouts of quasileib in one process.

    python3 tools/ab_inprocess.py BASE CHANGE [--passes N] [--requests K]

BASE and CHANGE are checkout roots.  Each tree's ``src/quasileib`` is
loaded under its own module name, and its ``perfbench/corpus.py`` under
another, with the corpus's ``quasileib`` imports bound to that tree's
package.  The seed-0 ``family_corpus`` inputs (the first K of them, when
given) are built once.  Each pass sends every request once through each
tree, all 2K in a random order with ``gc.collect()`` before each, then
runs ``sweep_tables(GF(2), 3, run_lemmas=True)`` once per tree in a random
order.  Per pass it takes three ratios, CHANGE over BASE: the pass (sum of
request times), the median request, and the census.  It prints the median
and range of each over the passes, and whether the two trees' outputs
digest the same.

The two trees share one process, one heap and one host state, so the
ratios are free of the drift between fresh processes.  Load order can
still matter: alternate the argument order between processes and invert
the ratios of the swapped runs.
"""

from __future__ import annotations

import argparse
import ast
import gc
import importlib
import importlib.util
import os
import random
import statistics
import sys
import time


def _load(path: str, name: str, package_dir: str = None):
    spec = importlib.util.spec_from_file_location(
        name,
        path,
        submodule_search_locations=None if package_dir is None else [package_dir],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(root: str, tag: str):
    """(corpus module, census module, GF2) of the checkout at root, its
    package loaded as ``ab_<tag>``."""
    package = f"ab_{tag}"
    src = os.path.join(root, "src", "quasileib")
    _load(os.path.join(src, "__init__.py"), package, src)
    corpus_path = os.path.join(root, "perfbench", "corpus.py")
    with open(corpus_path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    wanted = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "quasileib"
    }
    # the corpus imports ``quasileib.x``: bind each such name to this
    # tree's module while the corpus loads, then take the names back
    saved = {name: sys.modules.pop(name, None) for name in wanted | {"quasileib"}}
    try:
        sys.modules["quasileib"] = sys.modules[package]
        for name in wanted:
            sys.modules[name] = importlib.import_module(package + name[len("quasileib"):])
        corpus = _load(corpus_path, f"ab_corpus_{tag}")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    census = importlib.import_module(f"{package}.census")
    fields = importlib.import_module(f"{package}.fields")
    return corpus, census, fields.GF2


def _timed(fn, *args, **kwargs):
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def _summary(ratios):
    return f"{statistics.median(ratios):.3f} ({min(ratios):.3f}-{max(ratios):.3f})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--requests", type=int, default=None)
    args = parser.parse_args(argv)

    trees = [load_tree(args.base, "base"), load_tree(args.change, "change")]
    inputs = trees[0][0].build(0)[: args.requests]
    rng = random.Random(1)
    pass_ratios, median_ratios, census_ratios = [], [], []
    differing = set()
    for _ in range(args.passes):
        order = [(side, i) for side in (0, 1) for i in range(len(inputs))]
        rng.shuffle(order)
        times = [[0.0] * len(inputs) for _ in trees]
        digests = [[None] * len(inputs) for _ in trees]
        for side, i in order:
            corpus = trees[side][0]
            label, obj = inputs[i]
            elapsed, (_, output) = _timed(corpus.request, label, obj)
            times[side][i] = elapsed
            digests[side][i] = corpus.digest(output)
        differing.update(
            inputs[i][0] for i in range(len(inputs)) if digests[0][i] != digests[1][i]
        )
        pass_ratios.append(sum(times[1]) / sum(times[0]))
        median_ratios.append(statistics.median(times[1]) / statistics.median(times[0]))
        census = [0.0, 0.0]
        for side in rng.sample((0, 1), 2):
            _, sweep, gf2 = trees[side]
            census[side], _ = _timed(sweep.sweep_tables, gf2, 3, run_lemmas=True)
        census_ratios.append(census[1] / census[0])

    print(f"passes {args.passes}, requests {len(inputs)}, change over base")
    print(f"corpus pass     {_summary(pass_ratios)}")
    print(f"median request  {_summary(median_ratios)}")
    print(f"gf2 d3 census   {_summary(census_ratios)}")
    if differing:
        print(f"outputs differ: {', '.join(sorted(differing))}")
        return 1
    print("outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
