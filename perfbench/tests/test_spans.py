"""Self-time arithmetic and the per-layer metrics derived from spans."""

from __future__ import annotations

import pytest

import spans
from spans import Span


def make(name, start, end, parent=None, tag=None, **counts):
    span = Span(name, parent, tag)
    span.start, span.end = start, end
    span.counts.update(counts)
    return span


def test_covered_length_merges_and_clips():
    assert spans.covered_length([], 0, 10) == 0
    assert spans.covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert spans.covered_length([(2, 3), (2, 3)], 0, 10) == pytest.approx(1)
    assert spans.covered_length([(-5, -1)], 0, 10) == 0


def test_self_times_on_a_hand_built_tree():
    root = make("root", 0, 10)
    a = make("a", 1, 4, root)
    b = make("b", 3, 6, root)  # overlaps a, as a concurrent child would
    grandchild = make("g", 2, 3, a)
    late = make("late", 8, 12, root)  # ends after its parent
    own = spans.self_times([root, a, b, grandchild, late])
    assert own[id(root)] == pytest.approx(10 - 5 - 2)
    assert own[id(a)] == pytest.approx(2)
    assert own[id(b)] == pytest.approx(3)
    assert own[id(grandchild)] == pytest.approx(1)
    assert own[id(late)] == pytest.approx(4)


def test_layer_metrics_from_hand_built_spans():
    run = make("pipeline.run_pipeline", 0, 10)
    tree = [
        run,
        make("spfx.read_spfx", 1, 2, run, "u1", bytes_read=100),
        make("spfx.write_spfx", 2, 5, run, "u1", bytes_written=40),
        make("spfx.read_spfx", 1, 3, run, "u2", bytes_read=50),
        make("masking.sample_policy_masks", 3, 4, run, "u2", masks=4, draws=10),
        make("rng.uniform_batch", 20, 21, None, None, draws=6, next_u64_calls=3),
        make("rng.uniform_batch", 21, 22, None, None, draws=6, next_u64_calls=1),
    ]
    m = spans.layer_metrics(tree, workers=2)
    assert m["spfx.read_spfx.self_s"] == pytest.approx(3)
    assert m["pipeline.run_pipeline.self_s"] == pytest.approx(10 - 4)
    assert m["spfx.bytes_read"] == 150
    assert m["spfx.bytes_written"] == 40
    assert m["masking.masks"] == 4
    assert m["masking.draw_yield"] == pytest.approx(8 / 22)
    assert m["rng.uniform_batch.draws_per_call"] == pytest.approx(2)
    # u1 spans [1, 5], u2 spans [1, 4]: 7 busy seconds over 10 s x 2 workers
    assert m["pipeline.worker_utilization"] == pytest.approx(7 / 20)


def test_installed_wrappers_record_and_restore(tmp_path):
    import gen
    import worker

    specmask = worker.import_package()
    from specmask import features, pipeline

    original = features.read_wav
    tracer = spans.Tracer()
    corpus = gen.write_wav_corpus(tmp_path / "in", 2, seed=1)
    config = pipeline.RunConfig(manifest_path=str(corpus.manifest), output_dir=str(tmp_path / "out"), num_workers=2)
    with spans.installed(tracer):
        assert pipeline.read_wav is not original
        pipeline.run_pipeline(config)
    assert features.read_wav is original and pipeline.read_wav is original and specmask.read_wav is original
    names = {s.name for s in tracer.spans}
    assert {"pipeline.run_pipeline", "features.read_wav", "spfx.write_spfx", "manifest.parse_manifest"} <= names
    run = next(s for s in tracer.spans if s.name == "pipeline.run_pipeline")
    reads = [s for s in tracer.spans if s.name == "features.read_wav"]
    assert all(s.parent is run for s in reads)
    assert sorted(s.tag for s in reads) == ["utt0000", "utt0001"]
    m = spans.layer_metrics(tracer.spans, workers=2)
    assert m["features.frames"] == sum(u.frames for u in corpus.utterances)
