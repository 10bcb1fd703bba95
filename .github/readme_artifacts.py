"""Run README's CLI examples with one checkout's package and README; print each
artifact's SHA-256.

The examples are README's simulate config and that config under README's
sweep grids, as tests/test_cli.py reads them.  One line per artifact:
`<command>/<file> <sha256> <exit code>`.

    python .github/readme_artifacts.py CHECKOUT OUT_DIR
"""

import hashlib
import json
import re
import sys
from pathlib import Path

checkout, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
sys.path.insert(0, str(checkout / "src"))
from adaptive_lqr import cli  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(checkout / "src"):
    sys.exit(f"adaptive_lqr was imported from {cli.__file__}, not from {checkout / 'src'}")

readme = (checkout / "README.md").read_text()


def json_block(after: str) -> str:
    """The first ```json block after the marker text."""
    return re.search(r"```json\n(.*?)```", readme.split(after, 1)[1], re.S).group(1)


simulate = json.loads(json_block("`simulate` (and the scenario base of `sweep`):"))
sweep = {**simulate, **json.loads("{" + json_block("`sweep`: the scenario base above") + "}")}
for command, cfg, artifacts in (("simulate", simulate, ("trajectory.csv", "summary.json")),
                                ("sweep", sweep, ("sweep.csv",))):
    run_dir = out / command
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(json.dumps(cfg))
    code = cli.main([command, str(run_dir / "config.json"), "--out-dir", str(run_dir)])
    for name in artifacts:
        digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        print(f"{command}/{name} {digest} {code}")
