"""Check that lcpbox's JSON writer gives the bytes of json.dumps(obj, indent=2).

    python tests/check_json_writer.py [count] [seed]

Standard library only: it loads ``src/lcpbox/jsontext.py`` by path, without
the package (which needs numpy), so it runs on any Python the writer must
support. It draws ``count`` random objects (default 20000): NaN, ±inf,
-0.0, subnormals, large ints, bools, None, non-ASCII and quote-holding
strings, empty, ragged and mixed-type lists, tuples, non-string keys and
nested report-like dicts. Exit status 1 on the first mismatch.
"""

import importlib.util
import json
import math
import random
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "src" / "lcpbox" / "jsontext.py"

FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
          2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 0.1)
STRINGS = ('"', "\\", 'a "quoted" word', "é∑😀", "\n\t\x00\x1f ", "],\n  [", "",
           "general:index-systems")


def load_writer():
    spec = importlib.util.spec_from_file_location("jsontext", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dumps


def scalar(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice(FLOATS)
    if kind == 1:
        return rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-300, 300)
    if kind == 2:
        return rng.randint(-10 ** 40, 10 ** 40)
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return "".join(chr(rng.randrange(0x20000)) for _ in range(rng.randrange(6)))
    if kind == 5:
        return rng.choice(STRINGS)
    return rng.randint(-3, 3)


def number(rng):
    return rng.choice((rng.choice(FLOATS), rng.gauss(0.0, 1.0), rng.randint(-9, 9)))


def value(rng, depth):
    kind = rng.randrange(8 if depth < 4 else 3)
    if kind < 2:
        return scalar(rng)
    if kind == 2:  # a vector
        return [number(rng) for _ in range(rng.randrange(6))]
    if kind == 3:  # a matrix, sometimes ragged, sometimes with tuple rows
        n = rng.randrange(5)
        rows = [[number(rng) for _ in range(rng.randrange(1, 5))] for _ in range(n)]
        return [tuple(r) if rng.random() < 0.2 else r for r in rows]
    if kind == 4:  # mixed rows: values, lists and empty lists together
        return [value(rng, depth + 1) if rng.random() < 0.5 else [] for _ in range(rng.randrange(5))]
    if kind == 5:  # a dict with any kind of key
        keys = [scalar(rng) if rng.random() < 0.3 else rng.choice(STRINGS) + str(k)
                for k in range(rng.randrange(5))]
        return {k: value(rng, depth + 1) for k in keys}
    if kind == 6:  # a report-like verdict with a certificate
        return {"property": rng.choice(STRINGS), "holds": rng.random() < 0.5,
                "notes": [rng.choice(STRINGS) for _ in range(rng.randrange(3))],
                "certificate": None if rng.random() < 0.3 else {
                    "I": [rng.randint(1, 9) for _ in range(rng.randrange(4))],
                    "realization": value(rng, 4) if rng.random() < 0.2 else
                    [[number(rng) for _ in range(3)] for _ in range(3)],
                    "x": [number(rng) for _ in range(3)]}}
    return tuple(value(rng, depth + 1) for _ in range(rng.randrange(4)))


def main(argv):
    count = int(argv[1]) if len(argv) > 1 else 20000
    seed = int(argv[2]) if len(argv) > 2 else 0
    dumps = load_writer()
    rng = random.Random(seed)
    for k in range(count):
        obj = value(rng, 0)
        if dumps(obj) != json.dumps(obj, indent=2):
            print(f"mismatch on object {k}: {obj!r}")
            return 1
    print(f"{count} objects: writer == json.dumps(indent=2) on Python "
          f"{sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
