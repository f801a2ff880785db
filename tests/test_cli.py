"""Tests for the command-line interface."""

import pytest

from repro.cli import (FIGURES, RESOURCE_FIGURES, WORKLOADS, build_config,
                       build_parser, build_workload, main)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "wordcount" in out and "fig01" in out and "table7" in out


def test_build_config_routes_presets():
    assert build_config("wordcount", 8).hdfs_block_size == 256 * 2**20
    assert build_config("terasort", 17).spark.default_parallelism == 544
    with pytest.raises(ValueError):
        build_config("nope", 8)


def test_build_workload_all_names():
    for name in WORKLOADS:
        wl = build_workload(name, 8)
        assert wl.input_files()


def test_build_workload_graph_choice():
    wl = build_workload("pagerank", 8, graph="medium", iterations=5)
    assert wl.graph.name == "medium"
    assert wl.iterations == 5


def test_run_command(capsys):
    rc = main(["run", "--engine", "spark", "--workload", "grep",
               "--nodes", "2", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "spark grep" in out
    assert "bottleneck:" in out


def test_explain_command(capsys):
    rc = main(["explain", "--workload", "wordcount", "--nodes", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Spark physical plan" in out
    assert "Flink job graph" in out
    assert "GroupCombine" in out


def test_figure_command_scaling(capsys):
    rc = main(["figure", "fig04", "--trials", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Grep" in out and "flink" in out


def test_figure_command_unknown(capsys):
    assert main(["figure", "fig99"]) == 2


def test_figure_registry_complete():
    # Every scaling + resource figure of the paper is reachable.
    ids = set(FIGURES) | set(RESOURCE_FIGURES)
    expected = {f"fig{i:02d}" for i in list(range(1, 18))} - {"fig01"}
    # fig01..fig17 minus none; check a sample instead of strict equality
    for fid in ("fig01", "fig03", "fig09", "fig16", "fig17"):
        assert fid in ids


def test_table7_command(capsys):
    rc = main(["table7", "--nodes", "97"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "97n PR flink" in out
    assert "Table VII" in out


def test_faults_command_estimate_mode(capsys):
    rc = main(["faults", "--workload", "wordcount", "--nodes", "4",
               "--mode", "estimate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("estimate") == 2  # one line per engine
    assert "simulated" not in out
    assert "node failure at" in out


def test_faults_command_both_modes(capsys):
    rc = main(["faults", "--workload", "wordcount", "--nodes", "4",
               "--mode", "both", "--engines", "spark"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "estimate" in out and "simulated" in out


def test_resilience_command(capsys):
    rc = main(["resilience", "--workloads", "wordcount", "--rates", "0",
               "1", "--nodes", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rate 0: 1.00x" in out
    assert "flink" in out and "spark" in out


def test_resilience_command_checkpoint_resume(tmp_path, capsys):
    argv = ["resilience", "--workloads", "wordcount", "--rates", "0",
            "--checkpoint", str(tmp_path / "store")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == first
    # Re-running without --resume must refuse, not clobber.
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "already exists" in err
    assert "Traceback" not in err
    # Resuming with different arguments is a different campaign.
    assert main(["resilience", "--workloads", "wordcount", "--rates", "1",
                 "--checkpoint", str(tmp_path / "store"), "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "different campaign" in err
    assert "Traceback" not in err


def test_resilience_resume_requires_checkpoint(capsys):
    with pytest.raises(SystemExit):
        main(["resilience", "--resume"])


PLAN = ["plan", "--workload", "grep", "--slo", "1"]


@pytest.mark.parametrize("argv", [
    ["table7", "--jobs", "-1"],
    ["resilience", "--jobs", "-1"],
    PLAN + ["--jobs", "-1"],
    ["serve", "--jobs", "-1"],
    ["resilience", "--retries", "-1"],
    PLAN + ["--timeout", "-1"],
    ["serve", "--timeout", "0"],
    ["serve", "--queue-limit", "0"],
    ["serve", "--breaker-threshold", "0"],
    ["serve", "--breaker-reset", "0"],
], ids=" ".join)
def test_out_of_range_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[-2]}" in err, err


@pytest.mark.parametrize("cache", ["stray-dir", "regular-file"])
def test_serve_cache_that_cannot_open_is_a_one_line_error(cache, tmp_path,
                                                         capsys):
    path = tmp_path / "cache"
    if cache == "stray-dir":
        path.mkdir()
        (path / "stray.txt").write_text("not a store")
    else:
        path.write_text("not a directory")
    # The store is opened before the service binds its port.
    assert main(["serve", "--port", "0", "--cache", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("fig_id", ["fig03", "fig18"])
def test_uncheckpointable_figures_refuse_checkpoint(fig_id, tmp_path,
                                                    capsys):
    store = tmp_path / "store"
    assert main(["figure", fig_id, "--checkpoint", str(store)]) == 2
    assert "not checkpointable" in capsys.readouterr().err
    assert not store.exists()


def test_figure_fig19_command(capsys):
    rc = main(["figure", "fig19", "--trials", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Resilience under sustained fault rates" in out


def test_streaming_degrade_command(capsys):
    rc = main(["streaming", "--degrade", "--nodes", "4",
               "--load-multiples", "1.0", "1.5", "--fault-rates", "0",
               "--policies", "degrade", "--duration", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Overload survival" in out
    assert "goodput" in out and "avail" in out


def test_streaming_degrade_checkpoint_resume(tmp_path, capsys):
    argv = ["streaming", "--degrade", "--nodes", "4",
            "--load-multiples", "1.5", "--fault-rates", "0.5",
            "--duration", "10",
            "--checkpoint", str(tmp_path / "store")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == first


def test_streaming_degrade_excludes_recovery(capsys):
    assert main(["streaming", "--degrade", "--recovery"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_figure_fig22_command(capsys):
    rc = main(["figure", "fig22", "--jobs", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Overload survival" in out


# ----------------------------------------------------------------------
# Ctrl-C hygiene: SIGINT to a running campaign exits cleanly
# ----------------------------------------------------------------------
def _children_of(pid):
    import os
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().split()
            if int(fields[3]) == pid:
                kids.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return kids


@pytest.mark.parametrize("argv", [
    # run_campaign's journaled fan-out
    ["resilience", "--jobs", "2", "--workloads", "wordcount", "--trials",
     "2", "--rates", "0.0", "0.5", "1.0", "2.0"],
    # parallel_map's all-or-nothing fan-out
    ["table7", "--nodes", "97", "--jobs", "2"],
    # the capacity planner's private worker pool (long enough that the
    # SIGINT lands before the plan finishes)
    ["plan", "--workload", "pagerank", "--slo", "1", "--nodes-candidates",
     "2", "4", "8", "16", "32", "64", "--jobs", "2"],
], ids=["resilience", "table7", "plan"])
def test_sigint_to_campaign_is_one_line_not_traceback_spew(argv, tmp_path):
    """A Ctrl-C mid-campaign must terminate the workers, print one
    short message, and exit 130 — no multiprocess traceback storm."""
    import os
    import signal
    import subprocess
    import sys
    import time

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if _children_of(proc.pid):
                break  # workers spawned: the campaign is running
            if proc.poll() is not None:
                pytest.fail("campaign exited before SIGINT: "
                            + proc.communicate()[1])
            time.sleep(0.05)
        else:
            pytest.fail("campaign never spawned workers")
        time.sleep(0.2)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    assert proc.returncode == 130, (out, err)
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1 and lines[0].startswith("interrupted:"), err
    assert "Traceback" not in out, out
    # The workers were terminated with the coordinator: no orphans.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and _children_of(proc.pid):
        time.sleep(0.05)
    assert not _children_of(proc.pid)
