"""Replay the recorded CLI corpus: every line must give the same exit code,
stdout and stderr.  ``tests/layer_goldens.py`` describes the format and
writes the corpus; this test never regenerates it."""

import time

import layer_goldens


def test_layer_corpus_replays_unchanged():
    lines = layer_goldens.read_corpus()
    assert len(lines) > 300
    assert {line["exit"] for line in lines} == {0, 1, 2}
    assert {line["argv"][1] for line in lines} >= {"sset", "supp", "ideal", "subset", "fusion", "type"}
    start = time.process_time()
    changed = [line["argv"] for line in lines if layer_goldens.replay(line) != line]
    elapsed = time.process_time() - start
    assert changed == []
    assert elapsed < 2.0


def test_layer_corpus_stays_small():
    assert layer_goldens.CORPUS.stat().st_size < 200_000
