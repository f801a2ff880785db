"""Golden-digest replay: file handling, mismatch detection, CLI wiring."""

import json

import pytest

from repro.validation import replay
from repro.validation.replay import (ReplayScenario, compute_digests,
                                     golden_path, load_golden, save_golden,
                                     verify_replay)


@pytest.fixture
def fake_scenarios(monkeypatch):
    """Replace the (expensive) real scenarios with instant fakes."""
    fakes = {
        "alpha": ReplayScenario("alpha", "fake", lambda seed:
                                {"seed": seed, "value": 1}),
        "beta": ReplayScenario("beta", "fake", lambda seed:
                               {"seed": seed, "value": 2}),
    }
    monkeypatch.setattr(replay, "SCENARIOS", fakes)
    return fakes


def test_golden_path_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(replay.GOLDEN_ENV, str(tmp_path / "g.json"))
    assert golden_path() == tmp_path / "g.json"


def test_golden_path_finds_repo_file(monkeypatch):
    monkeypatch.delenv(replay.GOLDEN_ENV, raising=False)
    path = golden_path()
    assert path.name == "digests.json"
    assert path.exists()  # this repo ships golden digests


def test_save_and_load_golden_roundtrip(tmp_path):
    path = tmp_path / "digests.json"
    save_golden({"alpha": "aa", "beta": "bb"}, path=path, seed=5)
    assert load_golden(path) == {"alpha": "aa", "beta": "bb"}
    # Partial update merges rather than overwrites.
    save_golden({"beta": "b2"}, path=path)
    assert load_golden(path) == {"alpha": "aa", "beta": "b2"}
    data = json.loads(path.read_text())
    assert "regenerate" in data["comment"]


def test_load_golden_missing_file_is_empty(tmp_path):
    assert load_golden(tmp_path / "absent.json") == {}


def test_compute_digests_rejects_unknown_scenario(fake_scenarios):
    with pytest.raises(KeyError, match="unknown replay scenario"):
        compute_digests(["nope"])


def test_verify_replay_reports_missing_and_mismatched(fake_scenarios,
                                                      tmp_path):
    path = tmp_path / "digests.json"
    digests = compute_digests(seed=0)
    assert sorted(digests) == ["alpha", "beta"]

    # No golden recorded yet: both scenarios are reported.
    problems = verify_replay(seed=0, path=path)
    assert len(problems) == 2
    assert all("no golden digest" in p for p in problems)

    save_golden(digests, path=path)
    assert verify_replay(seed=0, path=path) == []

    # A seed change produces different payloads, hence mismatches.
    problems = verify_replay(seed=1, path=path)
    assert len(problems) == 2
    assert all("trace changed" in p for p in problems)


def test_scenario_digest_depends_on_payload(fake_scenarios):
    alpha = fake_scenarios["alpha"]
    assert alpha.digest(seed=0) == alpha.digest(seed=0)
    assert alpha.digest(seed=0) != alpha.digest(seed=1)


def test_real_scenarios_cover_the_issue_minimum():
    assert {"fig01", "fig10", "tab07"} <= set(replay.SCENARIOS)


def test_cli_validate_replay_against_shipped_goldens(monkeypatch, capsys):
    """End-to-end: the shipped goldens reproduce (fig01 is the fast one)."""
    from repro.cli import main
    monkeypatch.delenv(replay.GOLDEN_ENV, raising=False)
    assert main(["validate", "--replay", "--scenarios", "fig01"]) == 0
    out = capsys.readouterr().out
    assert "replay ok" in out


def test_cli_validate_detects_corrupted_golden(tmp_path, capsys):
    from repro.cli import main
    real = load_golden()
    corrupted = dict(real)
    corrupted["fig01"] = "0" * 64
    path = tmp_path / "digests.json"
    save_golden(corrupted, path=path)
    assert main(["validate", "--replay", "--scenarios", "fig01",
                 "--golden", str(path)]) == 1
    err = capsys.readouterr().err
    assert "REPLAY MISMATCH" in err
