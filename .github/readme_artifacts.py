"""Run README's CLI examples with one checkout's package and README; print each
artifact's SHA-256.

The examples are README's simulate config and that config under README's
sweep grids, as tests/test_cli.py reads them, `solve` on the simulate config's
plant, and `certify` with all three checks on 20 sampled instances.  A grid
sweep follows (`sweep-grid`): the simulate config with a `linear_unmodeled`
disturbance under two betas, two gammas (one below a beta, so that row's
`alpha` fails), two amplitudes (one of them 0) and two magnitudes (one of
which overflows the payload), so its rows record both kinds of row error.
One line per artifact: `<run>/<file> <sha256> <exit code>`.

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
certify = {"checks": ["theorem1", "lemma1", "lyapunov"], "instances": 20}
grid = {**simulate,
        "disturbance": {"kind": "linear_unmodeled", "delta_a": [[0.1]], "delta_b": [[2.0]]},
        "sweep": {"beta": [1.5, 2.0], "rho_scale": [0.5], "gamma": [1.8, 40.0],
                  "excitation_amplitude": [0.0, 50.0], "disturbance_magnitude": [0.5, 1e308]}}
for run, command, cfg, artifacts in (
        ("simulate", "simulate", simulate, ("trajectory.csv", "summary.json")),
        ("sweep", "sweep", sweep, ("sweep.csv",)),
        ("solve", "solve", {"plant": simulate["plant"]}, ("summary.json",)),
        ("certify", "certify", certify, ("reports.json",)),
        ("sweep-grid", "sweep", grid, ("sweep.csv",))):
    run_dir = out / run
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(json.dumps(cfg))
    code = cli.main([command, str(run_dir / "config.json"), "--out-dir", str(run_dir)])
    for name in artifacts:
        digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        print(f"{run}/{name} {digest} {code}")
