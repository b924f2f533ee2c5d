"""`tools/same_artifacts.py`: its config is the acceptance config, and it
names every manifest entry that differs, on stand-in checkouts."""

import importlib.util
import json
from pathlib import Path

from test_acceptance import ACCEPT_CONFIG

_SPEC = importlib.util.spec_from_file_location(
    "same_artifacts", Path(__file__).resolve().parent.parent / "tools" / "same_artifacts.py"
)
same_artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_artifacts)


def test_the_config_is_the_acceptance_config():
    assert same_artifacts.ACCEPT_CONFIG == ACCEPT_CONFIG


# A stand-in ucalab.cli whose run_pipeline writes a fixed manifest, plus the
# config it was given, into out_dir.
FAKE_CLI = """
import json, pathlib
MANIFEST = {manifest!r}
def run_pipeline(config):
    manifest = dict(MANIFEST, config=config, timings_s={{"train/npd": {seconds}}})
    (pathlib.Path(config["out_dir"]) / "manifest.json").write_text(json.dumps(manifest))
"""
MANIFEST = {"files": {"tables/npd_0.ucav": "aa", "models/npd_0.ucam": "bb"}, "seeds": {"table/npd/0": 7},
            "train": {"npd/0": {"adam_steps": 3}}, "optimum": {"npd": 1.5}}


def checkout(root: Path, name: str, manifest: dict, seconds: float) -> Path:
    package = root / name / "src" / "ucalab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI.format(manifest=manifest, seconds=seconds))
    return root / name


def test_equal_manifests_pass_whatever_their_timings(tmp_path, capsys):
    base = checkout(tmp_path, "base", MANIFEST, 1.0)
    change = checkout(tmp_path, "change", MANIFEST, 2.0)
    assert same_artifacts.main([str(base), str(change)]) == 0
    assert capsys.readouterr().out == "same artifacts: 2 file hashes, seeds, train and optimum equal\n"


def test_every_differing_entry_is_named(tmp_path, capsys):
    changed = json.loads(json.dumps(MANIFEST))
    changed["files"]["models/npd_0.ucam"] = "cc"
    del changed["seeds"]["table/npd/0"]
    changed["optimum"]["trap"] = 2.0
    base = checkout(tmp_path, "base", MANIFEST, 1.0)
    change = checkout(tmp_path, "change", changed, 1.0)
    assert same_artifacts.main([str(base), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "files/models/npd_0.ucam: bb -> cc",
        "seeds/table/npd/0: 7 -> None",
        "optimum/trap: None -> 2.0",
    ]


def test_a_failed_run_is_an_error(tmp_path, capsys):
    base = checkout(tmp_path, "base", MANIFEST, 1.0)
    (base / "src" / "ucalab" / "cli.py").write_text("def run_pipeline(config):\n    raise SystemExit(2)\n")
    assert same_artifacts.main([str(base), str(checkout(tmp_path, "change", MANIFEST, 1.0))]) == 1
    assert "pipeline exited 2" in capsys.readouterr().err
