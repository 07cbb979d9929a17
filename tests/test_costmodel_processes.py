"""Cost-model restarts fitted across processes.

`train_cost_model` spreads its RESTARTS fits over min(RESTARTS, usable CPUs)
processes. The CPU count is patched here, so every case runs on any box; the
result must be bitwise the sequential one (one process), a failing restart
must raise as it would in one process, and no child may outlive the call.
"""

import os
import time

import pytest

from hwnas import costmodel
from hwnas.cli import main
from hwnas.errors import NonFiniteLoss
from hwnas.profiler import SimulatedVPU

RECORDS = costmodel.simulate_records(SimulatedVPU(), 200, seed=3)
CONFIG = costmodel.CostModelConfig(epochs=100, seed=3)  # restart 3 wins


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _train(monkeypatch, tmp_path, cpus):
    """(model file bytes, report, every restart's (val loss, curves, model file
    bytes)) of one training run at `cpus` usable CPUs."""
    monkeypatch.setattr(costmodel, "_usable_cpus", lambda: cpus)
    fitted = []
    fit_restarts = costmodel._fit_restarts

    def recording_fit_restarts(fit, starts):
        fitted.append(fit_restarts(fit, starts))
        return fitted[-1]

    monkeypatch.setattr(costmodel, "_fit_restarts", recording_fit_restarts)
    model, report = costmodel.train_cost_model(RECORDS, CONFIG)

    def model_bytes(m):
        path = tmp_path / "m.json"
        costmodel.save_model(m, path)
        return path.read_bytes()

    restarts = [(val, tr, va, model_bytes(m))
                for m, val, tr, va in (fitted[0][i] for i in range(costmodel.RESTARTS))]
    return model_bytes(model), report, restarts


@pytest.fixture(scope="module")
def sequential(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        return _train(mp, tmp_path_factory.mktemp("seq"), 1)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5, 8])
def test_result_is_bitwise_the_sequential_one(cpus, sequential, monkeypatch, tmp_path):
    got_model, got_report, got_restarts = _train(monkeypatch, tmp_path, cpus)
    model, report, restarts = sequential
    assert got_model == model
    assert got_report == report
    assert repr((got_report.train_losses, got_report.val_losses)) == repr(
        (report.train_losses, report.val_losses))
    assert got_restarts == restarts


def _failing_fit(monkeypatch, failing):
    """Makes restart i raise NonFiniteLoss(failing[i]); the others fit as usual."""
    drawn = []
    draw, fit_once = costmodel._draw_start, costmodel._fit_once

    def recording_draw(rng, d):
        drawn.append(draw(rng, d))
        return drawn[-1]

    def fit(start, *args):
        restart = next(i for i, s in enumerate(drawn) if s is start)
        if restart in failing:
            raise NonFiniteLoss(failing[restart])
        return fit_once(start, *args)

    monkeypatch.setattr(costmodel, "_draw_start", recording_draw)
    monkeypatch.setattr(costmodel, "_fit_once", fit)


@pytest.mark.parametrize("failing", [{1: "cost-model loss diverged at epoch 2"},
                                     {3: "cost-model loss diverged at epoch 7",
                                      1: "cost-model loss diverged at epoch 2"}])
@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_first_failing_restart_raises_its_error(cpus, failing, monkeypatch):
    monkeypatch.setattr(costmodel, "_usable_cpus", lambda: cpus)
    _failing_fit(monkeypatch, failing)
    with pytest.raises(NonFiniteLoss, match="^cost-model loss diverged at epoch 2$"):
        costmodel.train_cost_model(RECORDS, CONFIG)


def test_child_that_dies_is_an_error_naming_its_exit_status(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(costmodel, "_usable_cpus", lambda: 2)
    parent, fit_once = os.getpid(), costmodel._fit_once

    def fit(*args):
        if os.getpid() != parent:
            os._exit(3)
        return fit_once(*args)

    monkeypatch.setattr(costmodel, "_fit_once", fit)
    out = tmp_path / "cost.model.json"
    rc = main(["costmodel", "train", "--simulate", "200", "--seed", "3", "--epochs", "50",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "exit status 3" in err
    assert not out.exists()


def test_interrupt_kills_and_reaps_every_child(monkeypatch):
    monkeypatch.setattr(costmodel, "_usable_cpus", lambda: 5)
    parent = os.getpid()

    def fit(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(costmodel, "_fit_once", fit)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        costmodel.train_cost_model(RECORDS, CONFIG)
    assert time.perf_counter() - t0 < 30


def _fork_fails_after(monkeypatch, calls):
    fork, made = os.fork, []

    def failing_fork():
        if len(made) == calls:
            raise OSError("fork: Resource temporarily unavailable")
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)


@pytest.mark.parametrize("case", ["no-fork", "fork-fails", "second-fork-fails"])
def test_restarts_a_child_could_not_take_are_fitted_here(case, sequential, monkeypatch,
                                                         tmp_path):
    if case == "no-fork":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        _fork_fails_after(monkeypatch, 0 if case == "fork-fails" else 1)
    assert _train(monkeypatch, tmp_path, 5) == sequential
