"""The ``ordcopies layer`` contract as a recorded corpus.

``python tests/layer_goldens.py`` (with ``src`` on ``PYTHONPATH``) writes
the input documents under ``tests/goldens/layer/`` and one JSON line per
invocation to ``tests/goldens/layer.jsonl``; ``tests/test_goldens.py``
replays every line through ``cli.run``.  The inputs come from this file's
own frozen seeded generator, not from ``ordcopies.verify``'s, so a change
there does not move them.  A changed line is a change of the CLI contract:
regenerate only on purpose, and name the lines that moved.

Each line holds the argv (input files named relative to ``goldens/``), any
environment, the exit code, stdout (verbatim up to ``VERBATIM`` bytes,
otherwise its sha256 and first line) and stderr.  The goldens directory is
written ``{goldens}`` in the recorded output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from pathlib import Path
from unittest import mock

GOLDENS = Path(__file__).resolve().parent / "goldens"
CORPUS = GOLDENS / "layer.jsonl"
INPUTS = "layer"
VERBATIM = 200


# -- replay ---------------------------------------------------------------------


def _stdout_record(text: str):
    if len(text.encode()) <= VERBATIM:
        return text
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "first_line": text.split("\n", 1)[0][:VERBATIM],
    }


def replay(line: dict) -> dict:
    """Run one recorded invocation and return what it gives, in the
    corpus's form, so that a passing line compares equal."""
    from ordcopies.cli import run

    argv = [str(GOLDENS / arg) if arg.startswith(INPUTS + "/") else arg for arg in line["argv"]]
    env = line.get("env", {})
    with mock.patch.dict(os.environ, env):
        result = run(argv)
    here = str(GOLDENS)
    observed = {"argv": line["argv"]}
    if env:
        observed["env"] = env
    observed["exit"] = result.exit_code
    observed["stdout"] = _stdout_record(result.stdout.replace(here, "{goldens}"))
    observed["stderr"] = result.stderr.replace(here, "{goldens}")
    return observed


def read_corpus():
    with open(CORPUS, encoding="utf-8") as handle:
        return [json.loads(text) for text in handle]


# -- the frozen generator -------------------------------------------------------


def _flag(bit):
    return "full" if bit else "empty"


def _cube(rng, dim, density=0.5):
    """A small random cube-set document of dimension ``dim`` >= 1."""
    if dim == 1:
        return {
            "dim": 1,
            "prefix": [int(rng.random() < density) for _ in range(rng.randint(0, 3))],
            "cycle": [int(rng.random() < density) for _ in range(rng.randint(1, 3))],
        }
    return {
        "dim": dim,
        "prefix": [_cube(rng, dim - 1, density) for _ in range(rng.randint(0, 2))],
        "cycle": [_cube(rng, dim - 1, density) for _ in range(rng.randint(1, 2))],
    }


def _layered(rng, max_prefix=5):
    """A layered document: flags and cube columns up to dimension 3, then a
    uniform tail or a cyclic one of length 2 to 5."""
    prefix = []
    for n in range(rng.randint(0, max_prefix)):
        roll = rng.random()
        if roll < 0.3 or n >= 3:
            prefix.append(_flag(roll < 0.15 or (n >= 3 and roll < 0.6)))
        else:
            prefix.append(_cube(rng, n + 1, density=rng.choice((0.2, 0.5, 0.8))))
    if rng.random() < 0.45:
        tail = [_flag(rng.random() < 0.5) for _ in range(rng.randint(2, 5))]
    else:
        tail = _flag(rng.random() < 0.6)
    return {"prefix": prefix, "tail": tail}


def _fusion_inputs(rng):
    """Inputs meeting fusion's preconditions when ``periodic`` picks the
    even columns: each tail keeps its full columns on the even indices."""
    periodic = rng.random() < 0.4
    sets = []
    for _ in range(rng.randint(1, 3)):
        prefix = [
            _flag(rng.random() < 0.5) if rng.random() < 0.6 else _cube(rng, n + 1)
            for n in range(rng.randint(0, 3))
        ]
        if periodic:
            tail = ["full", "empty"] if len(prefix) % 2 == 0 else ["empty", "full"]
        else:
            tail = "full"
        sets.append({"prefix": prefix, "tail": tail})
    if periodic:
        index = {"dim": 1, "prefix": [], "cycle": [1, 0]}
    else:
        index = {"kind": "cofinite", "exceptions": sorted(rng.sample(range(6), rng.randint(0, 3)))}
    return sets, index


def _wrap(cube, dim):
    """``cube`` as the one cycle column of each dimension up to ``dim``."""
    while cube["dim"] < dim:
        cube = {"dim": cube["dim"] + 1, "prefix": [], "cycle": [cube]}
    return cube


class _Writer:
    def __init__(self):
        self.files = {}
        self.lines = []

    def doc(self, name, obj):
        return self.text(name, json.dumps(obj))

    def text(self, name, text):
        path = f"{INPUTS}/{name}"
        self.files[path] = text
        return path

    def run(self, *argv, env=None):
        line = {"argv": list(argv)}
        if env:
            line["env"] = env
        self.lines.append(line)


def _generate(w: _Writer) -> None:
    rng = random.Random("ordcopies layer goldens v1")
    sets = [w.doc(f"set{i:02d}.json", _layered(rng)) for i in range(32)]
    for i, path in enumerate(sets):
        for m in sorted({0, 1, 3, i % 7, 9}):
            w.run("layer", "sset", "--file", path, str(m))
        for op in ("supp", "ideal", "type"):
            w.run("layer", op, "--file", path)
    for _ in range(32):
        a, b = rng.sample(sets, 2)
        w.run("layer", "subset", "--file", a, "--other", b)
    for i in range(20):
        docs, index = _fusion_inputs(rng)
        files = []
        for n, doc in enumerate(docs):
            files += ["--file", w.doc(f"fusion{i:02d}_{n}.json", doc)]
        w.run("layer", "fusion", *files, "--s", w.doc(f"fusion{i:02d}_s.json", index))

    # Outputs past the verbatim size: long levels and a tail of period 77.
    full = w.doc("full.json", {"prefix": [], "tail": "full"})
    evens = w.doc("evens.json", {"prefix": [], "tail": ["full", "empty"]})
    for m in (40, 1000, 10000):
        w.run("layer", "sset", "--file", full, str(m))
        w.run("layer", "sset", "--file", evens, str(m))
    long_tail = ["full" if n % 7 in (0, 3) or n % 11 == 5 else "empty" for n in range(77)]
    long_doc = w.doc("tail77.json", {"prefix": ["full", "empty"], "tail": long_tail})
    for op in ("supp", "ideal", "type"):
        w.run("layer", op, "--file", long_doc)
    w.run("layer", "sset", "--file", long_doc, "5")
    w.run("layer", "subset", "--file", long_doc, "--other", evens)
    w.run("layer", "subset", "--file", evens, "--other", long_doc)

    # Exit 1: domain and cap errors.
    w.run("layer", "sset", "--file", full, "-1")
    finite = w.doc("finite_s.json", {"kind": "finite", "exceptions": [1, 2, 3]})
    w.run("layer", "fusion", "--file", full, "--s", finite)
    empty = w.doc("empty.json", {"prefix": [], "tail": "empty"})
    cofinite = w.doc("cofinite_s.json", {"kind": "cofinite", "exceptions": []})
    w.run("layer", "fusion", "--file", full, "--file", empty, "--s", cofinite)
    odd = w.doc("odd.json", {"prefix": [], "tail": ["empty", "full"]})
    w.run("layer", "fusion", "--file", full, "--file", odd, "--s", cofinite)
    evens_s = w.doc("evens_s.json", {"dim": 1, "prefix": [], "cycle": [1, 0]})
    w.run("layer", "fusion", "--file", odd, "--s", evens_s)
    spread = w.doc("spread_s.json", {"kind": "cofinite", "exceptions": [1, 3, 5, 7, 9, 11]})
    w.run("layer", "fusion", "--file", full, "--s", spread)
    w.run("layer", "fusion", "--file", full, "--s", spread, env={"ORDCOPIES_NMAX": "6"})
    line = {"dim": 1, "prefix": [], "cycle": [1]}
    w.run("layer", "fusion", "--file", full, "--s", w.doc("dim2_s.json", _wrap(line, 2)))
    long_prefix = w.doc("prefix9.json", {"prefix": ["empty"] * 8 + ["full"], "tail": "empty"})
    w.run("layer", "type", "--file", long_prefix)
    w.run("layer", "type", "--file", long_prefix, env={"ORDCOPIES_NMAX": "5"})
    w.run("layer", "sset", "--file", long_prefix, "8", env={"ORDCOPIES_NMAX": "5"})
    point = _wrap({"dim": 1, "prefix": [1], "cycle": [0]}, 5)
    deep = w.doc("dim5.json", {"prefix": ["empty"] * 4 + [point], "tail": "empty"})
    w.run("layer", "supp", "--file", deep)
    w.run("layer", "supp", "--file", deep, env={"ORDCOPIES_NMAX": "5"})
    w.run("layer", "type", "--file", deep, env={"ORDCOPIES_NMAX": "5"})
    wrong_dim = w.doc("wrong_dim.json", {"prefix": [_wrap(line, 2)], "tail": "empty"})
    w.run("layer", "type", "--file", wrong_dim)

    # Exit 2: schema, format and usage errors.
    for name, text in (
        ("no_tail.json", '{"prefix": []}'),
        ("bad_tail.json", '{"prefix": [], "tail": "sometimes"}'),
        ("empty_pattern.json", '{"prefix": [], "tail": []}'),
        ("prefix_object.json", '{"prefix": {}, "tail": "empty"}'),
        ("bad_column.json", '{"prefix": ["half"], "tail": "empty"}'),
        ("bool_leaf.json", '{"prefix": [{"dim": 1, "prefix": [true], "cycle": [0]}], "tail": "full"}'),
        ("leaf_two.json", '{"prefix": [{"dim": 1, "prefix": [2], "cycle": [0]}], "tail": "full"}'),
        ("extra_key.json", '{"prefix": [], "tail": "full", "cycle": []}'),
        ("not_json.json", '{"prefix": [], "tail": '),
        ("array.json", "[]"),
    ):
        w.run("layer", "type", "--file", w.text(name, text))
    w.run("layer", "sset", "--file", full, "abc")
    w.run("layer", "sset", "--file", full, "٣")
    w.run("layer", "sset", "--file", full)
    for name, text in (
        ("bad_s.json", '{"kind": "open", "exceptions": []}'),
        ("unhashable_s.json", '{"kind": "cofinite", "exceptions": [[1]]}'),
    ):
        w.run("layer", "fusion", "--file", full, "--s", w.text(name, text))
    w.run("layer", "type", "--file", f"{INPUTS}/missing.json")
    w.run("layer", "type", "--file", full, env={"ORDCOPIES_NMAX": "0"})
    w.run("layer", "bogus", "--file", full)


def main() -> int:
    w = _Writer()
    _generate(w)
    directory = GOLDENS / INPUTS
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.json"):
        old.unlink()
    for path, text in w.files.items():
        (GOLDENS / path).write_text(text + "\n", encoding="utf-8")
    with open(CORPUS, "w", encoding="utf-8") as handle:
        for line in w.lines:
            handle.write(json.dumps(replay(line), ensure_ascii=False) + "\n")
    print(f"{len(w.lines)} lines, {len(w.files)} inputs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
