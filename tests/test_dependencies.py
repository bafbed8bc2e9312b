"""The package runs on numpy alone, its one runtime dependency in pyproject.toml.

The test extras (scipy, mpmath, hypothesis) are installed beside it, so the
pipeline runs in a fresh interpreter whose import system refuses them.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
REFUSED = ("scipy", "mpmath", "hypothesis")

SCRIPT = """
import importlib.abc
import json
import sys

out, REFUSED = sys.argv[1], set(sys.argv[2:])


class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in REFUSED:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, Refuse())

from causal_sphhn.cli import main

with open(f"{out}/train.json", "w") as fh:
    json.dump({"max_epochs": 1}, fh)
ds = f"{out}/dataset.json"
codes = {
    "synth": main(["synth", "--preset", "toy", "--out", out]),
    "granger": main(["granger", "--dataset", ds, "--out", out]),
    "train": main(["train", "--dataset", ds, "--graph", f"{out}/causal.json", "--config", f"{out}/train.json",
                   "--out", out]),
    "eval": main(["eval", "--checkpoint", f"{out}/checkpoint.json", "--dataset", ds,
                  "--truth", f"{out}/truth.json", "--out", out]),
    "gradcheck": main(["gradcheck", "--seed", "0"]),
}
loaded = sorted(name for name in REFUSED if name in sys.modules)
try:
    import scipy  # noqa: F401
    refusing = False
except ModuleNotFoundError:
    refusing = True
print(json.dumps({"codes": codes, "loaded": loaded, "refusing": refusing}))
"""


def test_pipeline_runs_without_the_test_extras(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), *REFUSED],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == dict.fromkeys(("synth", "granger", "train", "eval", "gradcheck"), 0)
    assert result["loaded"] == []
    assert result["refusing"]
