"""The ``repro policy`` subcommand and the shared ``--save-policy`` option."""

import json

import pytest

from repro.cli import main
from repro.policy.artifact import load_artifact


@pytest.fixture()
def saved_policy(tmp_path):
    """A max-objective artifact written by ``repro check --save-policy``."""
    path = tmp_path / "max.rpol"
    code = main(
        [
            "check", 'Pmax=? [ F<=20 "no_premium" ]', "--n", "1",
            "--save-policy", str(path),
        ]
    )
    assert code == 3  # quantitative query: value, no verdict
    assert path.exists()
    return path


class TestSavePolicyOption:
    def test_check_writes_a_loadable_artifact(self, saved_policy):
        artifact = load_artifact(saved_policy)
        assert artifact.objective == "max"
        assert artifact.t == 20.0
        assert artifact.meta["model"]["family"] == "ftwc"
        assert artifact.certificate is not None

    def test_check_refuses_queries_without_schedulers(self, tmp_path, capsys):
        code = main(
            [
                "check", 'S=? [ "no_premium" ]', "--ctmc", "--n", "1",
                "--save-policy", str(tmp_path / "nope.rpol"),
            ]
        )
        assert code == 2
        assert "records no scheduler" in capsys.readouterr().err

    def test_batch_stores_into_directory_and_registry(self, tmp_path, capsys):
        queries = tmp_path / "queries.json"
        queries.write_text(
            json.dumps(
                {
                    "defaults": {"model": {"family": "ftwc", "n": 1}},
                    "queries": [
                        {"t": 10.0},
                        {"t": 10.0, "objective": "min"},
                        {"t": 10.0, "model": {"family": "ftwc-ctmc", "n": 1}},
                    ],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out.json"
        policy_dir = tmp_path / "policies"
        assert (
            main(
                [
                    "batch", str(queries), "--out", str(out),
                    "--save-policy", f"{policy_dir}/",
                    "--cache-dir", str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        document = json.loads(out.read_text(encoding="utf-8"))
        assert len(document["policies"]) == 2
        for record in document["policies"]:
            assert load_artifact(record["path"]).key == record["key"]
        # Only the CTMDP results carry the policy summary.
        carried = [
            "policy" in result for result in document["results"]
        ]
        assert carried == [True, True, False]

        # The registry destination lands in <cache>/policies/<key>.rpol.
        assert (
            main(
                [
                    "batch", str(queries), "--out", str(out),
                    "--save-policy", "registry",
                    "--cache-dir", str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        stored = sorted((tmp_path / "cache" / "policies").glob("*.rpol"))
        assert len(stored) == 2


class TestPolicyCommand:
    def test_inspect_and_summary(self, saved_policy, capsys):
        assert main(["policy", "inspect", str(saved_policy)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["meta"]["objective"] == "max"
        assert record["store"]["rows"] > 0

        assert main(["policy", "summary", str(saved_policy)]) == 0
        out = capsys.readouterr().out
        assert "max" in out and "ratio" in out

    def test_diff(self, saved_policy, tmp_path, capsys):
        other = tmp_path / "min.rpol"
        main(
            [
                "check", 'Pmin=? [ F<=20 "no_premium" ]', "--n", "1",
                "--save-policy", str(other),
            ]
        )
        assert main(["policy", "diff", str(saved_policy), str(saved_policy)]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["policy", "diff", str(saved_policy), str(other)]) == 1
        assert "objective" in capsys.readouterr().out

    def test_replay_validates_the_induced_chain(self, saved_policy, tmp_path, capsys):
        code = main(
            [
                "policy", "replay", str(saved_policy),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert "induced-chain ok" in capsys.readouterr().out

    def test_replay_by_key_prefix(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        queries = tmp_path / "queries.json"
        queries.write_text(
            json.dumps([{"model": {"family": "ftwc", "n": 1}, "t": 10.0}]),
            encoding="utf-8",
        )
        main(
            [
                "batch", str(queries), "--out", str(tmp_path / "o.json"),
                "--save-policy", "registry", "--cache-dir", str(cache),
            ]
        )
        document = json.loads((tmp_path / "o.json").read_text(encoding="utf-8"))
        key = document["policies"][0]["key"]

        assert main(["policy", "list", "--cache-dir", str(cache)]) == 0
        assert key[:16] in capsys.readouterr().out

        code = main(
            [
                "policy", "replay", key[:10], "--format", "json",
                "--cache-dir", str(cache),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["artifact_key"] == key
        assert report["certificate"]["status"] == "ok"

    def test_export_ndjson(self, saved_policy, tmp_path, capsys):
        out = tmp_path / "policy.ndjson"
        assert main(["policy", "export", str(saved_policy), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert all(json.loads(line)["kind"] == "row" for line in lines[1:])

    def test_unknown_artifact_is_a_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "policy", "inspect", str(tmp_path / "missing.rpol"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 2
        assert "no such artifact" in capsys.readouterr().err


class TestReplayAgainstModelFile:
    @pytest.fixture()
    def exported_model(self, tmp_path):
        """The FTWC N=1 uCTMDP exported to an on-disk .tra/.lab pair."""
        prefix = tmp_path / "ftwc1"
        assert main(["export", "--n", "1", "--out-prefix", str(prefix)]) == 0
        assert prefix.with_suffix(".tra").exists()
        assert prefix.with_suffix(".lab").exists()
        return prefix.with_suffix(".tra")

    def test_replay_against_exported_tra(self, saved_policy, exported_model, capsys):
        code = main(
            ["policy", "replay", str(saved_policy), "--against", str(exported_model)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "induced-chain ok" in out
        assert "deviation" in out

    def test_replay_against_json_report(self, saved_policy, exported_model, capsys):
        code = main(
            [
                "policy", "replay", str(saved_policy),
                "--against", str(exported_model), "--format", "json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"], report
        assert report["certificate"]["status"] == "ok"

    def test_replay_against_differently_numbered_model_is_refused(
        self, saved_policy, tmp_path, capsys
    ):
        from repro.io.tra import write_ctmdp_tra, write_labels
        from tests.models import _ftwc_reference

        old = _ftwc_reference.build_ctmdp(1)
        path = tmp_path / "discovery-order.tra"
        write_ctmdp_tra(old.ctmdp, path)
        write_labels(old.goal_mask, "no_premium", path.with_suffix(".lab"))
        code = main(["policy", "replay", str(saved_policy), "--against", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert load_artifact(saved_policy).meta["model_digest"] in err

    def test_missing_labels_is_a_usage_error(self, saved_policy, tmp_path, capsys):
        bare = tmp_path / "bare.tra"
        prefix = tmp_path / "full"
        assert main(["export", "--n", "1", "--out-prefix", str(prefix)]) == 0
        bare.write_bytes(prefix.with_suffix(".tra").read_bytes())
        code = main(["policy", "replay", str(saved_policy), "--against", str(bare)])
        assert code == 2
        assert "lab" in capsys.readouterr().err.lower()

    def test_unknown_goal_label_is_a_usage_error(
        self, saved_policy, exported_model, capsys
    ):
        code = main(
            [
                "policy", "replay", str(saved_policy),
                "--against", str(exported_model), "--goal", "no_such_label",
            ]
        )
        assert code == 2
        assert "no_such_label" in capsys.readouterr().err
