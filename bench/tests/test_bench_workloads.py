"""Shrunken instances of the four workloads pass their correctness gate.

Each test runs the real code path of its workload on a smaller input
(fewer artefacts, fewer nodes, smaller campaigns, fewer requests) and
requires the gate the full benchmark applies to come out clean.
"""

import asyncio
import json
import shutil
import subprocess
import sys

import batch
import run
import serving

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads(run.EXPECTED.read_text())


def test_each_failed_operation_counts_once():
    done = batch.Pass()
    assert done.step("ok", lambda: 1) == 1
    assert done.step("boom", lambda: 1 / 0) is None
    done.check("ok", ["a run failed", "a gap"])
    done.check("fine", [])
    assert done.attempted == 2 and [op.label for op in done.ops] == ["ok"]
    assert len(done.broken) == 2 and "ZeroDivisionError" in done.broken[0]


def test_figures_subset_matches_the_pins(tmp_path, monkeypatch):
    monkeypatch.setattr(batch, "ARTEFACTS", tuple(
        a for a in batch.ARTEFACTS if a[0] in ("fig03", "fig18", "fig01")))
    figures = batch.Figures(0, tmp_path)
    figures.prepare()
    done = figures.one_pass()
    assert not done.broken
    pinned = EXPECTED["figures"]
    assert done.outputs == {k: pinned[k] for k in ("fig01", "fig03", "fig18")}


def test_scale_small_cluster_passes_the_gate_traced_and_untraced(
        monkeypatch):
    monkeypatch.setattr(batch.Scale, "NODES", 12)
    result = run.run_workload("scale", 1, 0.0, "both", SPEC, EXPECTED,
                              pinning=False)
    assert result.correct, result.problems
    assert result.layers["wall_ns"] == sum(result.layers["main"].values())
    assert result.metrics["cluster.sim_events"] > 0
    assert result.metrics["runner.runs"] == 2


class SmallCampaigns(batch.Campaigns):
    def prepare(self):
        super().prepare()
        from repro.harness import figures
        from repro.validation import digest
        self.campaigns = (
            ("fig19", lambda **kw: figures.fig19_resilience(
                nodes=4, rates=(0.0, 1.0), workload_names=("wordcount",),
                **kw), digest.resilience_payload),
            ("fig20", lambda **kw: figures.fig20_streaming_latency(
                nodes=4, load_fractions=(0.5,), arrival_kinds=("poisson",),
                duration=10.0, **kw), digest.streaming_payload),
        )


def test_campaigns_resume_identically_without_gaps(tmp_path):
    campaigns = SmallCampaigns(2, tmp_path)
    campaigns.prepare()
    done = campaigns.one_pass()
    assert not done.broken
    assert set(done.outputs) == {"fig19", "fig20"}
    assert not any(tmp_path.iterdir()), "journals are removed after a pass"


def shorten_serve(monkeypatch):
    monkeypatch.setattr(serving, "MIN_REQUESTS", 40)
    monkeypatch.setattr(serving, "BLOCK", 20)
    monkeypatch.setattr(serving, "SETUP_RECORDS", 20)
    monkeypatch.setattr(run, "SETUP_STARTS", 2)


def test_serve_short_stream_passes_the_gate_traced_and_untraced(
        monkeypatch):
    shorten_serve(monkeypatch)
    result = run.run_workload("serve", 1, 0.0, "both", SPEC, EXPECTED,
                              pinning=False)
    assert result.correct, result.problems
    assert result.attempted >= 80 and result.failed == 0
    assert result.info["sim_attempts"] > 0
    assert set(result.metrics) == {m["name"] for m in
                                   SPEC["end_to_end"] + SPEC["per_layer"]}
    # The launcher spooled the service's spans and its workers' spans.
    assert result.layers["server"]["serve.pool.run"] > 0
    assert result.layers["worker"]["engines.run"] > 0
    assert result.metrics["serve.pool.attempts"] > 0


def test_a_server_that_does_not_drain_fails_the_run_with_a_result_line(
        monkeypatch, capsys):
    shorten_serve(monkeypatch)
    stop = serving.stop_server

    def no_drain(proc):
        stop(proc)
        raise serving.ServerError("repro serve did not drain within 60 s")

    monkeypatch.setattr(serving, "stop_server", no_drain)
    assert run.main(["--workload", "serve", "--seed", "1", "--seconds", "0",
                     "--trace", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False
    assert last["attempted"] >= 1 and last["failed"] >= 1


def test_a_reply_that_is_not_http_counts_as_a_failed_request(monkeypatch):
    monkeypatch.setattr(serving, "MIN_REQUESTS", 3)

    async def hang_up(reader, writer):
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        await reader.readexactly(length)
        writer.close()  # an empty reply

    async def loop():
        server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
        async with server:
            port = server.sockets[0].getsockname()[1]
            return await serving.drive(port, 0, 0.0)

    replies, _start, _end, _waits = asyncio.run(loop())
    assert len(replies) >= 3
    assert all(r.status == 0 for r in replies.values())
    problems, _attempts = serving.check_replies(replies)
    assert len(problems) == len(replies)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scale",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout
