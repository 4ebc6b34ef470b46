import contextlib
import io
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sdelab import cli, config

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs"

# Property tests run simulation kernels whose first call pays numpy warm-up
# costs; wall-clock deadlines only produce flaky failures there.
settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(scope="session")
def study(tmp_path_factory):
    """``study(stem)`` runs ``scripts/configs/<stem>.cfg`` through the CLI the
    first time a test asks for it and returns the directory of its CSVs; later
    requests reuse that run, so each study runs at most once per session."""
    out_dirs: dict[str, pathlib.Path] = {}

    def run(stem: str) -> pathlib.Path:
        if stem not in out_dirs:
            path = str(CONFIGS / f"{stem}.cfg")
            out = tmp_path_factory.mktemp(stem)
            kind = config.parse_config_file(path).kind
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([kind, "--config", path, "--out", str(out)])
            assert rc == 0, f"{stem} exited {rc}"
            out_dirs[stem] = out
        return out_dirs[stem]

    return run
