"""Same artifacts: run the acceptance-config pipeline from two checkouts and
compare what it wrote.

    python3 tools/same_artifacts.py BASE CHANGE

BASE and CHANGE are repository checkouts (for example `git archive` of the
parent commit, and the working tree). Each runs `ucalab.cli.run_pipeline` on
ACCEPT_CONFIG (the config of tests/test_acceptance.py, the only one with more
than one instance per distribution) in its own subprocess, with that
checkout's src/ on PYTHONPATH and a fresh temporary out_dir, one run after
the other. The manifests' `files` (artifact SHA-256 hashes), `seeds`,
`train` and `optimum` are compared entry by entry; timings and the config,
whose out_dir differs, are not. Prints each differing entry as
`key/entry: base -> change`, or a `same artifacts` line when there is none.
Exits 1 on any difference or failed run.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Must equal tests/test_acceptance.py::ACCEPT_CONFIG; tests/test_same_artifacts.py checks it.
ACCEPT_CONFIG = {
    "master_seed": "20260808",
    "n": "10",
    "m": "4",
    "kappa": "4",
    "pairs_per_level": "1500",
    "epochs": "60",
    "learning_rate": "1e-3",
    "batch_size": "64",
    "instances": "5",
    "evals": "2000",
    "checkpoints": "10,50,100,250,500,750,1000,1500,2000",
}
COMPARED = ("files", "seeds", "train", "optimum")
RUN = "import json, sys; from ucalab.cli import run_pipeline; run_pipeline(json.loads(sys.argv[1]))"


def manifest(checkout: Path) -> dict:
    """The manifest of one acceptance-config pipeline run from `checkout`'s
    src/, refused when the run fails."""
    with tempfile.TemporaryDirectory() as out_dir:
        config = json.dumps(dict(ACCEPT_CONFIG, out_dir=out_dir))
        env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
        proc = subprocess.run([sys.executable, "-c", RUN, config], cwd=out_dir, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{checkout}: pipeline exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return json.loads((Path(out_dir) / "manifest.json").read_text())


def differences(base: dict, change: dict) -> list[str]:
    """`key/entry: base -> change` for every entry of the COMPARED keys that
    differs or that only one manifest has (shown as None on the other)."""
    found = []
    for key in COMPARED:
        a, b = base.get(key, {}), change.get(key, {})
        for entry in sorted(set(a) | set(b)):
            if a.get(entry) != b.get(entry):
                found.append(f"{key}/{entry}: {a.get(entry)} -> {b.get(entry)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    try:
        base, change = manifest(args.base), manifest(args.change)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    found = differences(base, change)
    for line in found:
        print(line)
    if not found:
        print(f"same artifacts: {len(base['files'])} file hashes, seeds, train and optimum equal")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
