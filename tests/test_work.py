"""The work model: a run takes the path-steps that ``experiments.run_work``
predicts from its config, and every shipped config predicts under both
bounds.  Steps are counted by wrapping the one path driver (conftest's
``counted_work``); a curve against the exact solution also walks its
reference, which draws steps but takes none."""

import contextlib
import io

import pytest

from conftest import CONFIGS, counted_work
from sdelab import brownian as bw, cli, models
from sdelab.config import parse_config, parse_config_file
from sdelab.experiments import run_work
from test_tables import SLOW, STEMS

GBM = "model = gbm\nmu = 0.05\nsigma = 0.2\ngamma = 1.0\ns0 = 1.0\nT = 1.0"

# (model block, [scheme] aliases, [run] block): one small run per simulating
# kind, method and reference
SMALL_RUNS = {
    "negstats": ("preset = cir-scenario-1", "absolute_euler", "n = 300\nn_samples = 70"),
    "pathwise": (GBM, "milstein", "n_list = 2, 8\nref_n = 64\nsample_index = 3"),
    "converge": (
        "preset = cev-set-1", "euler, tamed_euler", "n_list = 4, 16\nn_samples = 130",
    ),
    "converge-exact": (
        GBM, "euler, milstein", "n_list = 4, 16\nn_samples = 70\nreference = exact",
    ),
    "explode": (
        "preset = three-halves-mc", "euler", "n_list = 4, 16\nn_samples_list = 10, 100",
    ),
    "mlmc": ("preset = heston-mlmc", "log_heston", "epsilon_list = 2^-2, 2^-3"),
    "mlmc-replications": (
        "preset = heston-mlmc", "log_heston",
        "method = standard\nepsilon = 2^-2\nreplications = 3\ntruth = 10.0",
    ),
    "price": (GBM, "euler", "method = mc\nn = 16\nn_samples = 130"),
    "price-mc-radius": (GBM, "euler", "method = mc\nn = 8\nn_samples = 90\nradius = 2.0"),
    "price-mlmc": ("preset = heston-mlmc", "log_heston", "method = mlmc\nepsilon = 2^-2"),
}


def _predicted(cfg) -> tuple[int, int]:
    return run_work(cfg, models.build_model(cfg.model_id, cfg.params))


def _taken(cfg, counts) -> int:
    """The path-steps x noise dimensions a run took: its scheme steps, and
    the steps an exact reference's walk drew."""
    exact = cfg.run.get("reference") == "exact"
    return counts["stepped"] + (counts["drawn"] if exact else 0)


@pytest.mark.parametrize("name", list(SMALL_RUNS))
def test_a_run_takes_the_predicted_path_steps(tmp_path, name):
    model_block, aliases, run_block = SMALL_RUNS[name]
    kind = name.split("-")[0]
    text = (
        f"[experiment]\nkind = {kind}\nseed = 11\n\n[model]\n{model_block}\n\n"
        f"[scheme]\nscheme = {aliases}\n\n[run]\n{run_block}\n"
    )
    (tmp_path / "run.cfg").write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), counted_work() as counts:
        rc = cli.main([kind, "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    steps, _ = _predicted(parse_config(text))
    assert steps > 0 and _taken(parse_config(text), counts) == steps


@pytest.mark.parametrize(
    "stem", [pytest.param(s, marks=pytest.mark.slow) if s in SLOW else s for s in STEMS]
)
def test_a_shipped_study_takes_the_predicted_path_steps(stem, study):
    study(stem)  # the session's one run of the study
    cfg = parse_config_file(str(CONFIGS / f"{stem}.cfg"))
    assert _taken(cfg, study.work[stem]) == _predicted(cfg)[0]


def test_every_shipped_config_predicts_under_both_bounds():
    for stem in STEMS:
        steps, cells = _predicted(parse_config_file(str(CONFIGS / f"{stem}.cfg")))
        assert steps <= bw._WALK_FLOATS and cells <= bw._BATCH_FLOATS, stem
