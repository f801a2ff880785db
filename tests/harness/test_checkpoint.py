"""Tests for the crash-safe checkpoint store and resume identity.

The contract under test (see ``repro/harness/checkpoint.py``): every
journaled record survives any crash, a truncated trailing record is
discarded and recomputed, and a resumed campaign produces output
**bit-identical** to an uninterrupted one — including after a real
SIGKILL of the harness process mid-campaign.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.config.presets import GiB, wordcount_grep_preset
from repro.harness.checkpoint import CheckpointError, CheckpointStore
from repro.harness.figures import fig01_wordcount_weak, fig19_resilience
from repro.harness.sweep import sweep
from repro.validation.digest import (digest_payload, resilience_payload,
                                     scaling_payload)
from repro.workloads import WordCount


# ----------------------------------------------------------------------
# store semantics
# ----------------------------------------------------------------------
def test_fresh_store_roundtrip(tmp_path):
    with CheckpointStore(tmp_path / "s", {"campaign": 1}) as store:
        assert len(store) == 0
        store.save("a", {"x": 1.5})
        store.save("b", [1, 2, 3])
        assert "a" in store and store.load("a") == {"x": 1.5}
        assert store.get("missing") is None
    with CheckpointStore(tmp_path / "s", {"campaign": 1},
                         resume=True) as store:
        assert len(store) == 2
        assert store.load("b") == [1, 2, 3]
        assert not store.truncated_tail


def test_save_is_idempotent_per_key(tmp_path):
    with CheckpointStore(tmp_path / "s", "fp") as store:
        store.save("k", 1)
        store.save("k", 2)  # ignored: first write wins
        assert store.load("k") == 1
    journal = (tmp_path / "s" / "journal.jsonl").read_text()
    assert journal.count('"k"') == 1


def test_nan_payload_survives_the_journal(tmp_path):
    with CheckpointStore(tmp_path / "s", "fp") as store:
        store.save("k", {"mean_seconds": math.nan})
    with CheckpointStore(tmp_path / "s", "fp", resume=True) as store:
        assert math.isnan(store.load("k")["mean_seconds"])


def test_existing_store_requires_resume(tmp_path):
    CheckpointStore(tmp_path / "s", "fp").close()
    with pytest.raises(CheckpointError, match="resume"):
        CheckpointStore(tmp_path / "s", "fp")


def test_fingerprint_mismatch_rejected(tmp_path):
    CheckpointStore(tmp_path / "s", {"seed": 0}).close()
    with pytest.raises(CheckpointError, match="different campaign"):
        CheckpointStore(tmp_path / "s", {"seed": 1}, resume=True)


def test_non_store_directory_rejected(tmp_path):
    (tmp_path / "s").mkdir()
    (tmp_path / "s" / "stray.txt").write_text("not a store")
    with pytest.raises(CheckpointError, match="refusing"):
        CheckpointStore(tmp_path / "s", "fp")


def test_truncated_trailing_record_is_discarded(tmp_path):
    with CheckpointStore(tmp_path / "s", "fp") as store:
        store.save("done", 1)
    journal = tmp_path / "s" / "journal.jsonl"
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"key": "half", "payl')  # crash mid-append
    with CheckpointStore(tmp_path / "s", "fp", resume=True) as store:
        assert store.truncated_tail
        assert "done" in store and "half" not in store


def test_corrupt_interior_record_is_an_error(tmp_path):
    with CheckpointStore(tmp_path / "s", "fp") as store:
        store.save("a", 1)
    journal = tmp_path / "s" / "journal.jsonl"
    text = journal.read_text()
    journal.write_text("GARBAGE\n" + text)
    with pytest.raises(CheckpointError, match="corrupt journal"):
        CheckpointStore(tmp_path / "s", "fp", resume=True)


def test_records_carry_their_own_checksum(tmp_path):
    with CheckpointStore(tmp_path / "s", "fp") as store:
        store.save("a", {"duration": 81.5})
    record = json.loads(
        (tmp_path / "s" / "journal.jsonl").read_text().splitlines()[0])
    assert record["sha"] == digest_payload({"duration": 81.5})


def test_midfile_bitflip_is_detected_not_loaded(tmp_path):
    # A flipped payload with an intact JSON line: invisible to the old
    # parse-only check, caught by the per-record checksum.
    with CheckpointStore(tmp_path / "s", "fp") as store:
        store.save("a", {"duration": 81.5})
        store.save("b", {"duration": 99.0})
    journal = tmp_path / "s" / "journal.jsonl"
    lines = [json.loads(line) for line in
             journal.read_text().splitlines()]
    lines[0]["payload"] = {"duration": 18.5}  # flip, keep the old sha
    journal.write_text("\n".join(json.dumps(r, sort_keys=True)
                                 for r in lines) + "\n")
    with pytest.raises(CheckpointError,
                       match="checksum .* does not match"):
        CheckpointStore(tmp_path / "s", "fp", resume=True)


def test_quarantine_mode_skips_corrupt_records_and_logs_them(tmp_path):
    with CheckpointStore(tmp_path / "s", "fp") as store:
        store.save("a", {"duration": 81.5})
        store.save("b", {"duration": 99.0})
    journal = tmp_path / "s" / "journal.jsonl"
    lines = [json.loads(line) for line in
             journal.read_text().splitlines()]
    lines[0]["payload"] = {"duration": 18.5}
    journal.write_text("\n".join(json.dumps(r, sort_keys=True)
                                 for r in lines) + "\n")
    with CheckpointStore(tmp_path / "s", "fp", resume=True,
                         on_corrupt="quarantine") as store:
        assert store.quarantined_keys == ["a"]
        assert "a" not in store
        assert store.load("b") == {"duration": 99.0}
    quarantine = tmp_path / "s" / "quarantine.jsonl"
    entry = json.loads(quarantine.read_text().splitlines()[0])
    assert entry["key"] == "a"
    assert "checksum" in entry["why"]


def test_checksumless_legacy_records_still_load(tmp_path):
    with CheckpointStore(tmp_path / "s", "fp") as store:
        store.save("a", {"duration": 81.5})
    journal = tmp_path / "s" / "journal.jsonl"
    record = json.loads(journal.read_text().splitlines()[0])
    del record["sha"]
    journal.write_text(json.dumps(record, sort_keys=True) + "\n")
    with CheckpointStore(tmp_path / "s", "fp", resume=True) as store:
        assert store.load("a") == {"duration": 81.5}


def test_on_corrupt_rejects_unknown_modes(tmp_path):
    with pytest.raises(ValueError, match="on_corrupt"):
        CheckpointStore(tmp_path / "s", "fp", on_corrupt="ignore")


def test_store_path_that_is_a_file_is_a_checkpoint_error(tmp_path):
    (tmp_path / "f").write_text("not a directory")
    for root in (tmp_path / "f", tmp_path / "f" / "sub"):
        with pytest.raises(CheckpointError, match="Not a directory"):
            CheckpointStore(root, "fp")


def test_non_utf8_manifest_is_a_checkpoint_error(tmp_path):
    CheckpointStore(tmp_path / "s", "fp").close()
    (tmp_path / "s" / "manifest.json").write_bytes(b'{"fingerprint": "\xff"}')
    with pytest.raises(CheckpointError, match="unreadable manifest"):
        CheckpointStore(tmp_path / "s", "fp", resume=True)


@pytest.mark.parametrize("text", ["[]", "null"])
def test_non_object_manifest_is_a_checkpoint_error(tmp_path, text):
    CheckpointStore(tmp_path / "s", "fp").close()
    (tmp_path / "s" / "manifest.json").write_text(text)
    with pytest.raises(CheckpointError, match="not a JSON object"):
        CheckpointStore(tmp_path / "s", "fp", resume=True)


@pytest.mark.parametrize("bad", [b"[1, 2]", b'"a\xffc"'])
def test_malformed_journal_lines_meet_the_corrupt_policy(tmp_path, bad):
    # A JSON line that is not an object, or a record with bytes that
    # are not UTF-8, is corruption like any other interior line.
    with CheckpointStore(tmp_path / "s", "fp") as store:
        store.save("a", "abc")
        store.save("b", 2)
    journal = tmp_path / "s" / "journal.jsonl"
    first, rest = journal.read_bytes().split(b"\n", 1)
    first = (bad if bad.startswith(b"[") else
             first.replace(b'"abc"', bad))
    journal.write_bytes(first + b"\n" + rest)
    with pytest.raises(CheckpointError, match="corrupt journal"):
        CheckpointStore(tmp_path / "s", "fp", resume=True)
    with CheckpointStore(tmp_path / "s", "fp", resume=True,
                         on_corrupt="quarantine") as store:
        assert list(store.keys()) == ["b"]


# ----------------------------------------------------------------------
# resume identity: sweep / figure / resilience
# ----------------------------------------------------------------------
def test_sweep_resume_identity(tmp_path):
    cfg = wordcount_grep_preset(2)
    wl = WordCount(2 * 8 * GiB)
    grid = {"spark.default_parallelism": [64, 384]}
    plain = sweep("spark", wl, cfg, grid)
    with CheckpointStore(tmp_path / "s", "sweep-fp") as store:
        first = sweep("spark", wl, cfg, grid, checkpoint=store)
    with CheckpointStore(tmp_path / "s", "sweep-fp", resume=True) as store:
        resumed = sweep("spark", wl, cfg, grid, checkpoint=store)
    assert (digest_payload(plain) == digest_payload(first)
            == digest_payload(resumed))


def test_scaling_figure_resume_identity(tmp_path):
    plain = fig01_wordcount_weak(trials=1, nodes=(2, 4))
    with CheckpointStore(tmp_path / "s", "fig01-fp") as store:
        first = fig01_wordcount_weak(trials=1, nodes=(2, 4),
                                     checkpoint=store)
    with CheckpointStore(tmp_path / "s", "fig01-fp", resume=True) as store:
        resumed = fig01_wordcount_weak(trials=1, nodes=(2, 4),
                                       checkpoint=store)
    digests = {digest_payload(scaling_payload(f))
               for f in (plain, first, resumed)}
    assert len(digests) == 1


def test_partial_campaign_resumes_bit_identically(tmp_path):
    # Journal only half the cells, then resume: the merged figure must
    # hash identically to the uninterrupted run.
    kwargs = dict(rates=(0.0, 1.0), workload_names=("wordcount",))
    plain = fig19_resilience(**kwargs)
    fp = {"figure_id": "fig19", "engines": ["flink", "spark"],
          "workloads": ["wordcount"], "rates": [0.0, 1.0], "trials": 1,
          "nodes": 8, "seed": 0, "stragglers": 0}
    with CheckpointStore(tmp_path / "s", fp) as store:
        fig19_resilience(**kwargs, checkpoint=store)
    journal = tmp_path / "s" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    assert len(lines) == 4
    journal.write_text("".join(lines[:2]))  # forget the second half
    with CheckpointStore(tmp_path / "s", fp, resume=True) as store:
        assert len(store) == 2
        resumed = fig19_resilience(**kwargs, checkpoint=store)
        assert len(store) == 4  # the missing cells were recomputed
    assert (digest_payload(resilience_payload(plain))
            == digest_payload(resilience_payload(resumed)))


# ----------------------------------------------------------------------
# the real thing: SIGKILL the harness mid-campaign, then resume
# ----------------------------------------------------------------------
FIG19_FP = {"figure_id": "fig19", "engines": ["flink", "spark"],
            "workloads": ["wordcount", "grep"], "rates": [0.0, 1.0],
            "trials": 1, "nodes": 8, "seed": 0, "stragglers": 0}

_CHILD = f"""
import sys
from repro.harness.checkpoint import CheckpointStore
from repro.harness.figures import fig19_resilience

root = sys.argv[1]
fp = {FIG19_FP!r}
with CheckpointStore(root, fp, resume=len(sys.argv) > 2) as store:
    fig19_resilience(rates=(0.0, 1.0),
                     workload_names=("wordcount", "grep"),
                     checkpoint=store)
"""


def test_sigkill_then_resume_reproduces_the_digest(tmp_path):
    root = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               REPRO_RESILIENCE_DELAY="0.15")  # slow cells: killable
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, str(root)],
                            env=env)
    journal = root / "journal.jsonl"
    deadline = time.monotonic() + 60
    try:
        # Wait until some (not all 8) cells are journaled, then kill -9.
        while time.monotonic() < deadline:
            if journal.exists() and journal.read_text().count("\n") >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("campaign never journaled its first cells")
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=60)
    done_before = journal.read_text().count("\n")
    assert 0 < done_before < 8, "kill landed before/after the campaign"

    # Resume in-process and compare against an uninterrupted run.
    from repro.validation.digest import resilience_payload
    with CheckpointStore(root, FIG19_FP, resume=True) as store:
        resumed = fig19_resilience(rates=(0.0, 1.0),
                                   workload_names=("wordcount", "grep"),
                                   checkpoint=store)
        assert len(store) == 8
    plain = fig19_resilience(rates=(0.0, 1.0),
                             workload_names=("wordcount", "grep"))
    assert not resumed.gaps
    assert (digest_payload(resilience_payload(resumed))
            == digest_payload(resilience_payload(plain)))
