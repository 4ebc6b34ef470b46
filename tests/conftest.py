import contextlib
import io
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sdelab import brownian as bw, cli, config, convergence, estimators

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


@contextlib.contextmanager
def counted_work():
    """Count the work of the runs inside: ``stepped``, the path-steps that
    ``simulate_batch`` takes, and ``drawn``, the steps that ``increment_chunks``
    yields, each times the noise dimension."""
    counts = {"stepped": 0, "drawn": 0}
    step, draw = convergence.simulate_batch, bw.increment_chunks

    def stepped(config, model, dt, incr, *args, **kw):
        counts["stepped"] += incr.size
        return step(config, model, dt, incr, *args, **kw)

    def drawn(*args):
        chunks = draw(*args)
        try:
            for chunk in chunks:
                counts["drawn"] += chunk.size
                yield chunk
        finally:
            chunks.close()

    with mock.patch.object(convergence, "simulate_batch", stepped), \
            mock.patch.object(estimators, "simulate_batch", stepped), \
            mock.patch.object(bw, "increment_chunks", drawn):
        yield counts


@pytest.fixture(scope="session")
def study(tmp_path_factory):
    """``study(stem)`` runs ``scripts/configs/<stem>.cfg`` through the CLI the
    first time a test asks for it and returns the directory of its CSVs; later
    requests reuse that run, so each study runs at most once per session.
    ``study.work[stem]`` holds the run's :func:`counted_work` counts."""
    out_dirs: dict[str, pathlib.Path] = {}
    work: dict[str, dict[str, int]] = {}

    def run(stem: str) -> pathlib.Path:
        if stem not in out_dirs:
            path = str(CONFIGS / f"{stem}.cfg")
            out = tmp_path_factory.mktemp(stem)
            kind = config.parse_config_file(path).kind
            with contextlib.redirect_stdout(io.StringIO()), counted_work() as counts:
                rc = cli.main([kind, "--config", path, "--out", str(out)])
            assert rc == 0, f"{stem} exited {rc}"
            out_dirs[stem], work[stem] = out, counts
        return out_dirs[stem]

    run.work = work
    return run
