"""The three benchmark workloads: set-up, one pipeline pass, output checks.

Every pipeline command goes in-process through `hwnas.cli.main([...])`, as a
user would type it. A pass is the whole pipeline once; `Run` times each
command and counts every operation (CLI command, oracle net, device call,
output check) as attempted or failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shlex
import statistics
import sys
import time
from pathlib import Path

from hwnas import cli, datasets, graph, latency, profiler, search, spaces
from hwnas.errors import HwnasError

# Sizes of one pass. A pass is the unit the run repeats for --seconds.
# At the CLI's default learning rates (search 0.02, retrain 0.05) some
# trainings diverge with NonFiniteLoss, depending on the seed (see NOTES.md).
# At these rates none did in the trials recorded there; toy-sr retraining
# still diverged now and then at 0.02, so it uses 0.01.
SEARCH_LR = ["--lr-weights", "0.01"]
TRAIN_LR = 0.02
WEIGHT_STEPS, ARCH_STEPS = 8, 4     # per search round
SEARCH_STEPS = ["--weight-steps", WEIGHT_STEPS, "--arch-steps", ARCH_STEPS]
CLS_ROUNDS, SR_ROUNDS = 25, 8
CLS_SEARCH = ["--lambda2", "20", "--rounds", CLS_ROUNDS, *SEARCH_STEPS, *SEARCH_LR]
CLS_RETRAIN = ["--steps", "200", "--lr", TRAIN_LR]
ORACLE_STEPS = 12           # SGD steps per oracle net, batch 32
# Every trained classifier must score at least this test accuracy (chance is
# 0.25 on the 4 classes); every path reaches 1.0 on this data (NOTES.md).
ACCURACY_FLOOR = 0.9
SR_DATA = ["--data-samples", "60", "--data-size", "32"]
SR_SEARCH = ["--lambda2", "50", "--rounds", SR_ROUNDS, "--batch-size", "8",
             *SEARCH_STEPS, *SEARCH_LR]
SR_RETRAIN = ["--steps", "40", "--batch-size", "8", "--lr", "0.01"]
CM_TRAIN = ["--simulate", "500", "--epochs", "600"]
CALIBRATE_SAMPLES = 16
# Sanity bound on the cost model's validation MAPE at the size above; see
# NOTES.md for why this is not criterion 06's 15 %.
CM_MAPE_LIMIT_PCT = 25.0
SPACE_NAMES = ("toy-classification", "toy-sr", "calibration")


def derive_seed(seed: int, sub: int, purpose: str) -> int:
    """Program seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{sub}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class PassAborted(Exception):
    """A command failed; the rest of the pass depends on its output."""


class Pass:
    """Timings, hashes and output values of one pipeline pass."""

    def __init__(self, sub: int, traced: bool, directory: Path):
        self.sub, self.traced, self.dir = sub, traced, directory
        self.times = {}       # per stage, in reference-clock seconds
        self.raw_times = {}   # the same in wall seconds
        self.hashes = {}
        self.values = {}
        self.tick_s = float("nan")   # median reference tick during the pass

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


class Run:
    """Operation counts, failures, the clock and the tracer of one benchmark run."""

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def checks(self):
        """Context for the benchmark's own calls into hwnas: never traced."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def timed(self, p: Pass, stage: str):
        """Add the clock time and the wall time of the block to `stage`."""
        t0, raw0 = self.clock(), time.perf_counter()
        try:
            yield
        finally:
            p.raw_times[stage] = p.raw_times.get(stage, 0.0) + time.perf_counter() - raw0
            p.times[stage] = p.times.get(stage, 0.0) + self.clock() - t0

    def cli(self, p: Pass, stage: str, argv):
        """Run one hwnas command, add its time to `stage`; abort on failure."""
        out, err = io.StringIO(), io.StringIO()
        with self.timed(p, stage), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main([str(a) for a in argv])
            except SystemExit as e:  # argparse errors
                code = e.code
        if not self.record(code == 0, f"hwnas {' '.join(map(str, argv[:2]))} exited "
                                      f"{code}: {err.getvalue().strip()[-300:]}"):
            raise PassAborted
        return out.getvalue()

    def check(self, ok, what: str):
        return self.record(bool(ok), "check failed: " + what)


def _validates(compact: graph.CompactNet, supernet: graph.SuperNet) -> bool:
    """The derived net, as a one-candidate-per-stage supernet, passes validate."""
    n_stem = len(supernet.stem)
    chosen = compact.layers[n_stem:n_stem + len(supernet.stages)]
    single = graph.SuperNet(
        task=compact.task, input_shape=compact.input_shape,
        stem=compact.layers[:n_stem],
        stages=tuple(graph.MixedStage((op,), st.input_shape, st.output_shape)
                     for op, st in zip(chosen, supernet.stages)),
        head=compact.layers[n_stem + len(supernet.stages):],
        num_classes=compact.num_classes, sr_scale=compact.sr_scale)
    return graph.validate(single).ok and compact.layers == (
        tuple(supernet.stem)
        + tuple(st.candidates[j] for st, j in zip(supernet.stages, compact.chosen_indices))
        + tuple(supernet.head))


class _SearchPipeline:
    """lut build (sim) -> search run -> derive -> train-compact -> eval -> lint."""

    space = ""
    data_args: list = []
    search_args: list = []
    retrain_args: list = []

    def setup(self, seed: int, run_dir: Path):
        self.seed = seed
        self.data_seed = derive_seed(seed, 0, "data")
        self.supernet = spaces.BUILTIN_SPACES[self.space]()

    def search_seed(self, p: Pass) -> int:
        return derive_seed(self.seed, p.sub, "search")

    def search_pipeline(self, run: Run, p: Pass):
        d, s = p.dir, self.search_seed(p)
        data = self.data_args + ["--data-seed", self.data_seed]
        lut, out_dir = d / "space.lut.json", d / "search"
        compact, weights = d / "compact.net.json", d / "weights.json"
        run.cli(p, "lut_build", ["lut", "build", "--net", self.space, "--out", lut])
        run.cli(p, "search", ["search", "run", "--net", self.space, "--lut", lut,
                              *self.search_args, "--seed", s, "--out-dir", out_dir, *data])
        run.cli(p, "derive", ["derive", "--net", self.space,
                              "--arch", out_dir / "arch.json", "--out", compact])
        run.cli(p, "retrain", ["train-compact", "--net", compact, *self.retrain_args,
                               "--seed", s, "--out", weights, *data])
        run.cli(p, "eval", ["eval", "--net", compact, "--checkpoint", weights,
                            "--lut", lut, "--seed", s, "--out", d / "eval.json", *data])
        run.cli(p, "lint", ["lint", "--net", compact, "--exit-zero",
                            "--out", d / "lint.json"])
        with run.checks():
            for name, path in (("history.csv", out_dir / "history.csv"),
                               ("arch.json", out_dir / "arch.json"),
                               ("compact.net.json", compact),
                               ("eval.json", d / "eval.json")):
                p.hashes[name] = file_hash(path)
            net = graph.load_net(compact)
            run.check(_validates(net, self.supernet), "derived net fails graph.validate")
            p.values["chosen"] = list(net.chosen_indices)
            p.values.update(json.loads((d / "eval.json").read_text()))
            run.check(isinstance(json.loads((d / "lint.json").read_text()), list),
                      "lint findings are not a JSON list")
        return net


class ClsOracle(_SearchPipeline):
    name = "cls-oracle"
    space = "toy-classification"
    search_args = CLS_SEARCH
    search_steps = CLS_ROUNDS * (WEIGHT_STEPS + ARCH_STEPS)
    retrain_args = CLS_RETRAIN

    def setup(self, seed, run_dir):
        super().setup(seed, run_dir)
        self.data = datasets.generate_classification_dataset(datasets.DatasetSpec(
            graph.Task.Classification, 400, 8, num_classes=4, seed=self.data_seed))

    def run_pass(self, run: Run, p: Pass):
        self.search_pipeline(run, p)
        with run.checks():
            acc = p.values["test_accuracy"]
            run.check(ACCURACY_FLOOR <= acc <= 1.0,
                      f"derived net test accuracy {acc} below {ACCURACY_FLOOR}")
        sn = self.supernet
        accuracies = {}
        oracle_seed = derive_seed(self.seed, p.sub, "oracle")
        with run.timed(p, "oracle"):
            for chosen in itertools.product(*(range(len(st.candidates)) for st in sn.stages)):
                layers = (tuple(sn.stem) + tuple(st.candidates[j] for st, j in
                                                 zip(sn.stages, chosen)) + tuple(sn.head))
                net = graph.CompactNet(task=sn.task, input_shape=sn.input_shape, layers=layers,
                                       num_classes=sn.num_classes, chosen_indices=chosen)
                try:
                    model = search.train_compact(net, self.data.train, steps=ORACLE_STEPS,
                                                 batch_size=32, lr=TRAIN_LR, seed=oracle_seed)
                    accuracies["".join(map(str, chosen))] = search.accuracy(model, self.data.test)
                    run.record(True, "")
                except HwnasError as e:  # NonFiniteLoss
                    run.record(False, f"oracle net {chosen}: {e}")
        p.values["oracle_accuracy"] = accuracies
        low = {k: a for k, a in accuracies.items() if not ACCURACY_FLOOR <= a <= 1.0}
        run.check(not low, f"oracle accuracy below {ACCURACY_FLOOR}: {low}")

    def metrics(self, passes):
        paths = math.prod(len(st.candidates) for st in self.supernet.stages)
        return {"search_s": ("s", med(passes, "search")),
                "retrain_s": ("s", med(passes, "retrain")),
                "oracle_s": ("s", med(passes, "oracle")),
                "search_steps_per_s": ("1/s", self.search_steps / med(passes, "search")),
                "retrain_steps_per_s": ("1/s", paths * ORACLE_STEPS / med(passes, "oracle"))}


class SrSearch(_SearchPipeline):
    name = "sr-search"
    space = "toy-sr"
    data_args = SR_DATA
    search_args = SR_SEARCH
    search_steps = SR_ROUNDS * (WEIGHT_STEPS + ARCH_STEPS)
    retrain_args = SR_RETRAIN

    def setup(self, seed, run_dir):
        super().setup(seed, run_dir)
        self.test = datasets.generate_sr_dataset(datasets.DatasetSpec(
            graph.Task.SuperResolution, 60, 32, sr_scale=2, seed=self.data_seed)).test

    def run_pass(self, run: Run, p: Pass):
        net = self.search_pipeline(run, p)
        with run.checks():
            # the same initial weights that train-compact started from
            untrained = search.CompactNetModel(net, seed=self.search_seed(p))
            floor = datasets.psnr(untrained.forward(self.test[0]), self.test[1]).db
        p.values["untrained_psnr_db"] = floor
        db = p.values["test_psnr_db"]
        run.check(math.isfinite(db) and db > floor,
                  f"PSNR {db} dB not above the untrained net's {floor} dB")

    def metrics(self, passes):
        return {"search_s": ("s", med(passes, "search")),
                "retrain_s": ("s", med(passes, "retrain")),
                "test_psnr_db": ("dB", med_value(passes, "test_psnr_db")),
                "search_steps_per_s": ("1/s", self.search_steps / med(passes, "search"))}


class ProfileCostmodel:
    """costmodel train -> lut from-model x3 -> lut build x3 and calibrate on a
    command device running the benchmark's stdlib device stub."""

    name = "profile-costmodel"

    def __init__(self, inject_stub_exit: bool = False):
        self.exit_code = 3 if inject_stub_exit else 0

    def setup(self, seed, run_dir: Path):
        self.seed = seed
        self.count_file = run_dir / "stub_calls.log"
        stub = Path(__file__).resolve().parent / "device_stub.py"
        # -I -S: no site-packages and no environment, so a call costs only
        # an interpreter start
        template = " ".join(shlex.quote(str(a)) for a in (
            sys.executable, "-I", "-S", stub)) + " {graph} {trials} --count-file " + \
            shlex.quote(str(self.count_file))
        if self.exit_code:
            template += f" --exit-code {self.exit_code}"
        self.device = run_dir / "device.json"
        self.device.write_text(json.dumps({"type": "command",
                                           "command_template": template}))
        self.supernets = {n: spaces.BUILTIN_SPACES[n]() for n in SPACE_NAMES}
        self.count_file.write_text("")

    def expected_device_calls(self) -> int:
        """One stacked measurement per non-identity key, one per anchor shape,
        one per calibration sample."""
        calls = CALIBRATE_SAMPLES
        for sn in self.supernets.values():
            anchors = set()
            for _, op, shape in profiler.enumerate_search_space(sn):
                if op.kind is graph.OpKind.Identity:
                    continue
                calls += 1
                out = graph.output_shape(op, shape)
                if out != shape:
                    anchors.add(out)
            calls += len(anchors)
        return calls

    def run_pass(self, run: Run, p: Pass):
        d = p.dir
        model = d / "cost.model.json"
        self.count_file.write_text("")
        try:
            self._pipeline(run, p, model)
        finally:
            statuses = self.count_file.read_text().split()
            for status in statuses:
                run.record(status == "0", f"device stub exited {status}")
            p.values["stub_calls"] = len(statuses)
        with run.checks():
            expected = self.expected_device_calls()
            run.check(len(statuses) == expected,
                      f"stub ran {len(statuses)} times, expected {expected}")
            if p.traced:
                spans = [s for s in run.tracer.spans if s.name == "profiler.device_run"]
                run.check(len(spans) == len(statuses),
                          f"stub ran {len(statuses)} times, traced {len(spans)} device calls")

    def _pipeline(self, run: Run, p: Pass, model: Path):
        d = p.dir
        cm_seed = derive_seed(self.seed, p.sub, "costmodel")
        out = run.cli(p, "costmodel_train", ["--json", "costmodel", "train", *CM_TRAIN,
                                             "--seed", cm_seed, "--out", model])
        mape = json.loads(out)["val_mape_percent"]
        p.values["costmodel_val_mape_pct"] = mape
        run.check(mape < CM_MAPE_LIMIT_PCT, f"cost-model val MAPE {mape} %")
        for name in SPACE_NAMES:
            run.cli(p, "lut_from_model", ["lut", "from-model", "--net", name,
                                          "--model", model, "--out", d / f"{name}.pred.lut.json"])
        for name in SPACE_NAMES:
            run.cli(p, "lut_build", ["lut", "build", "--net", name, "--device", self.device,
                                     "--out", d / f"{name}.lut.json"])
        prefix = d / "cal" / "calib"
        run.cli(p, "calibrate", ["calibrate", "--net", "calibration",
                                 "--lut", d / "calibration.lut.json", "--device", self.device,
                                 "--samples", CALIBRATE_SAMPLES, "--out-prefix", prefix,
                                 "--seed", derive_seed(self.seed, p.sub, "calibrate")])
        with run.checks():
            for name in SPACE_NAMES:
                keys = {k for k, _, _ in profiler.enumerate_search_space(self.supernets[name])}
                for kind in ("pred", "measured"):
                    path = d / (f"{name}.pred.lut.json" if kind == "pred" else f"{name}.lut.json")
                    lut = latency.load_lut(path)
                    run.check(set(lut.entries) == keys, f"{kind} LUT of {name} misses keys")
                p.hashes[f"{name}.lut.json"] = cli.content_hash(d / f"{name}.lut.json")
            p.hashes["cost.model.json"] = file_hash(model)
            p.hashes["calib.csv"] = file_hash(prefix.with_suffix(".csv"))
            summary = json.loads(prefix.with_suffix(".json").read_text())
            r = summary["pearson"]
            p.values["calibration_pearson"] = r
            run.check(r is not None and math.isfinite(r), f"calibration Pearson r is {r}")

    def metrics(self, passes):
        return {"lut_build_s": ("s", med(passes, "lut_build")),
                "calibrate_s": ("s", med(passes, "calibrate")),
                "costmodel_train_s": ("s", med(passes, "costmodel_train")),
                "costmodel_val_mape_pct": ("%", med_value(passes, "costmodel_val_mape_pct"))}


def median(values):
    return statistics.median(values) if values else float("nan")


def _per_input(passes, get):
    """Median over distinct inputs of the mean value of that input's passes,
    so that the input every run repeats for its determinism check counts once."""
    by_input = {}
    for p in passes:
        value = get(p)
        if value is not None:
            by_input.setdefault(p.sub, []).append(value)
    return median([statistics.fmean(v) for v in by_input.values()])


def med(passes, stage, field="times"):
    return _per_input(passes, lambda p: getattr(p, field).get(stage))


def typical_wall(passes, field="times"):
    """Sum over commands of each command's median time."""
    stages = {stage for p in passes for stage in getattr(p, field)}
    return sum(med(passes, stage, field) for stage in stages)


def med_value(passes, key):
    return _per_input(passes, lambda p: p.values.get(key))


WORKLOADS = {w.name: w for w in (ClsOracle, SrSearch, ProfileCostmodel)}
