"""Layer spans: self time, exact tiling, and tracing that changes nothing."""

import asyncio

import layers


def span(sid, parent, layer, start, end):
    return [(1, sid), (1, parent) if parent else None, layer, start, end]


def test_self_time_subtracts_direct_children_only():
    spans = [span(1, None, "a", 0, 100),
             span(2, 1, "b", 10, 40),
             span(3, 2, "c", 15, 35),
             span(4, 1, "b", 50, 60)]
    assert layers.self_times(spans) == {"a": 60, "b": 20, "c": 20}


def test_overlapping_children_are_subtracted_once():
    # Concurrent children (an asyncio gather) cover 10..70, not 90.
    spans = [span(1, None, "search", 0, 100),
             span(2, 1, "pool", 10, 60),
             span(3, 1, "pool", 30, 70)]
    assert layers.self_times(spans)["search"] == 40


def test_rows_plus_unattributed_equal_the_wall_exactly():
    spans = [span(1, None, "a", 3, 1_000_000_007),
             span(2, 1, "b", 11, 500_000_013),
             span(3, None, "c", 1_000_000_100, 1_300_000_001)]
    for wall in (1_300_000_001, 2_000_000_003):
        rows = layers.tile(spans, wall)
        assert sum(rows.values()) == wall
        assert all(isinstance(v, int) for v in rows.values())


def test_traced_run_tiles_and_leaves_outputs_identical(tmp_path):
    from repro.config.presets import wordcount_grep_preset
    from repro.harness import runner
    from repro.validation.digest import digest_payload
    from repro.workloads import WordCount

    config = wordcount_grep_preset(2)
    workload = WordCount(total_bytes=2 * 2**30)

    def outputs():
        result = runner.run_once("spark", workload, config, seed=3)
        return digest_payload({"duration": result.duration,
                               "events": result.sim_events,
                               "metrics": {k: v for k, v in
                                           result.metrics.items()
                                           if isinstance(v, float)}})

    original = runner.run_once
    plain = outputs()
    recorder = layers.Recorder(tmp_path)
    uninstall = layers.install(recorder)
    try:
        assert runner.run_once is not original
        start = layers.time.perf_counter_ns()
        traced = outputs()
        wall = layers.time.perf_counter_ns() - start
    finally:
        uninstall()
    assert runner.run_once is original
    assert traced == plain
    spans, counts = recorder.take()
    rows = layers.tile(spans, wall)
    assert sum(rows.values()) == wall
    assert rows["engines.run"] > 0 and rows["unattributed"] >= 0
    assert counts["runner.runs"] == 1 and counts["engines.runs"] == 1
    assert counts["cluster.sim_events"] >= counts["engines.events"] > 0
    assert counts["cluster.flows"] > 0


def test_async_spans_nest_per_task(tmp_path):
    recorder = layers.Recorder(tmp_path)

    async def child():
        token, s = recorder.begin("child")
        await asyncio.sleep(0.01)
        recorder.end(token, s)

    async def parent():
        token, s = recorder.begin("parent")
        await asyncio.gather(child(), child())
        recorder.end(token, s)

    async def both():
        await asyncio.gather(parent(), parent())

    asyncio.run(both())
    spans, _ = recorder.take()
    parents = {tuple(s[0]) for s in spans if s[2] == "parent"}
    assert all(s[1] in parents for s in spans if s[2] == "child")
    assert all(v >= 0 for v in layers.self_times(spans).values())
