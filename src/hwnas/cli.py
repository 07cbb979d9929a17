"""Command-line pipeline: profile -> LUT -> cost model -> search -> derive ->
retrain -> evaluate -> lint -> report.

Every command writes a run manifest recording its configuration hash, seed,
and the content hash of each produced artifact (hashes are computed over
timestamp-stripped content so reruns with the same seed match byte-for-byte).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import sys
import typing
from pathlib import Path

from . import __version__, costmodel, datasets, lint, profiler, search, spaces
from .errors import DeviceError, HwnasError, ParseError
from .graph import CompactNet, SuperNet, Task, load_net, save_net, validate
from .jsonio import (check_number, field, from_fields, numbers, read_object, read_text,
                     write_object, write_text)
from .latency import DEFAULT_CLOCK_GHZ, compact_latency, load_lut, save_lut
from .nncore import load_checkpoint, save_checkpoint


# ---------------------------------------------------------------------------
# Manifest helpers
# ---------------------------------------------------------------------------

def _strip_timestamps(data: bytes) -> bytes:
    """Zero volatile metadata (creation timestamps) before hashing."""
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return data
    if isinstance(doc, dict) and isinstance(doc.get("metadata"), dict):
        doc["metadata"].pop("created", None)
    return json.dumps(doc, sort_keys=True).encode()


def content_hash(path) -> str:
    return hashlib.sha256(_strip_timestamps(Path(path).read_bytes())).hexdigest()


def write_manifest(out_dir, command: str, args, seed, artifacts: dict):
    """Write run_manifest.json; the config hash covers every parsed argument."""
    cfg_hash = hashlib.sha256(
        json.dumps(vars(args) | {"func": None}, sort_keys=True).encode()).hexdigest()
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config_hash": cfg_hash,
        "seed": seed,
        "artifacts": {name: {"path": str(p), "sha256": content_hash(p)}
                      for name, p in artifacts.items()},
    }
    path = Path(out_dir) / "run_manifest.json"
    write_object(path, manifest, indent=2)
    return path


# ---------------------------------------------------------------------------
# Shared argument plumbing
# ---------------------------------------------------------------------------

def _number(kind, bound: str):
    """argparse type: an int or float (`kind`) that `check_number` holds to `bound`."""
    def parse(text):
        return check_number(kind(text), bound, error=argparse.ArgumentTypeError)
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


@functools.cache
def _typed_fields(cls):
    """{name: (type, field)} of dataclass `cls`, its annotations evaluated once."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f) for f in dataclasses.fields(cls)}


def _setting(p, flag, cls, name, **kw):
    """Add `flag` for field `name` of dataclass `cls`: its type, bound, dest and default
    are the field's, unless `kw` gives another dest or default."""
    kind, f = _typed_fields(cls)[name]
    p.add_argument(flag, type=_number(kind, f.metadata["bound"]),
                   **{"dest": name, "default": f.default} | kw)


def _load_device(spec: str):
    """'sim' for defaults, or a JSON config file ({'type': 'sim'|'command'})."""
    if spec == "sim":
        return profiler.SimulatedVPU()
    doc = read_object(spec)
    kind = doc.pop("type", "sim")
    devices = {"sim": profiler.SimulatedVPU, "command": profiler.ExternalCommandRunner}
    device = devices.get(kind) if isinstance(kind, str) else None
    if device is None:
        raise HwnasError(f"unknown device type {kind!r}")
    return from_fields(device, doc, spec)


def _add_dataset_args(p):
    _setting(p, "--data-samples", datasets.DatasetSpec, "num_samples", dest=None, default=400)
    _setting(p, "--data-size", datasets.DatasetSpec, "image_size", dest=None, default=None)
    _setting(p, "--data-noise", datasets.DatasetSpec, "noise", dest=None)
    _setting(p, "--data-seed", datasets.DatasetSpec, "seed", dest=None, default=42)


def _make_dataset(net, args, splits=datasets.SPLITS) -> datasets.Dataset:
    """Data of the net's input map, classes and SR scale; --data-size may only restate the map.
    SR data holds only the named splits."""
    c, h, w = net.input_shape.as_list()
    size = args.data_size or h
    if (c, h, w) != (3, size, size):
        raise HwnasError(f"{args.net}: its input is {c}x{h}x{w}, not the data's 3x{size}x{size}")
    try:
        spec = datasets.DatasetSpec(net.task, args.data_samples, size, num_classes=net.num_classes,
                                    sr_scale=net.sr_scale, seed=args.data_seed,
                                    noise=args.data_noise)
    except ValueError as e:
        raise HwnasError(f"{args.net}: {e}")
    if net.task is Task.Classification:
        return datasets.generate_classification_dataset(spec)
    return datasets.generate_sr_dataset(spec, splits)


def _splits(net, args, *names) -> list:
    """The named splits of _make_dataset(net, args). Each split owns its
    arrays, so the splits a command does not read are freed here, or, for
    SR data, never rendered."""
    ds = _make_dataset(net, args, names)
    return [getattr(ds, name) for name in names]


_NET_KINDS = {SuperNet: "supernet", CompactNet: "compact network"}


def _load_net(spec: str, kind=None):
    """A built-in space name or a .net.json file, of class `kind` when one is given,
    that passes `graph.validate`; otherwise the error names the first finding."""
    net = spaces.BUILTIN_SPACES[spec]() if spec in spaces.BUILTIN_SPACES else load_net(spec)
    if kind is not None and not isinstance(net, kind):
        raise HwnasError(f"{spec} is not a {_NET_KINDS[kind]} file")
    report = validate(net)
    if not report.ok:
        raise HwnasError(f"invalid {_NET_KINDS[type(net)]} {spec}: {report.findings[0]}")
    return net


def _emit(args, doc: dict):
    if getattr(args, "json", False):
        print(json.dumps(doc, indent=2))
    else:
        for k, v in doc.items():
            print(f"{k}: {v}")


def _finish(args, out_dir, command: str, seed, artifacts: dict, summary: dict) -> int:
    """The end of every command that writes a manifest: manifest, summary, exit 0."""
    write_manifest(out_dir, command, args, seed, artifacts)
    _emit(args, summary)
    return 0


# ---------------------------------------------------------------------------
# SVG plotting (textual, diffable, dependency-free)
# ---------------------------------------------------------------------------

def svg_scatter(points, xlabel: str, ylabel: str, path):
    """Write a minimal scatter plot of (x, y) points with a dashed y = x line."""
    w, h, m = 480, 360, 50
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    def sx(x): return m + (x - x0) / xr * (w - 2 * m)
    def sy(y): return h - m - (y - y0) / yr * (h - 2 * m)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<line x1="{m}" y1="{h-m}" x2="{w-m}" y2="{h-m}" stroke="black"/>',
             f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h-m}" stroke="black"/>',
             f'<text x="{w//2}" y="{h-10}" text-anchor="middle" font-size="12">{xlabel}</text>',
             f'<text x="14" y="{h//2}" font-size="12" transform="rotate(-90 14 {h//2})" '
             f'text-anchor="middle">{ylabel}</text>',
             f'<text x="{m}" y="{h-m+16}" font-size="10">{x0:.4g}</text>',
             f'<text x="{w-m}" y="{h-m+16}" font-size="10" text-anchor="end">{x1:.4g}</text>',
             f'<text x="{m-4}" y="{h-m}" font-size="10" text-anchor="end">{y0:.4g}</text>',
             f'<text x="{m-4}" y="{m+4}" font-size="10" text-anchor="end">{y1:.4g}</text>']
    lo, hi = max(x0, y0), min(x1, y1)
    if hi > lo:
        parts.append(f'<line x1="{sx(lo):.1f}" y1="{sy(lo):.1f}" x2="{sx(hi):.1f}" '
                     f'y2="{sy(hi):.1f}" stroke="gray" stroke-dasharray="4"/>')
    for x, y in points:
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" '
                     f'fill="steelblue" fill-opacity="0.7"/>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _partial_lut_path(out) -> Path:
    """`x.lut.json` (or `x.json`) -> `x.partial.lut.json` in the same directory."""
    out = Path(out)
    stem = out.name[:-len(".lut.json")] if out.name.endswith(".lut.json") else out.stem
    return out.with_name(stem + ".partial.lut.json")


def _keep_partial(error: DeviceError, what: str, path, save) -> DeviceError:
    """The error that ends a failed device run once `save(path)` has tried to keep
    the `what` it measured: the device's failure first, then the save's outcome."""
    try:
        save(path)
    except (HwnasError, OSError) as e:
        return DeviceError(f"{error}; the {what} measured so far could not be saved "
                           f"in {path}: {e}")
    return DeviceError(f"{error}; the {what} measured so far are saved in {path}")


def cmd_lut_build(args):
    net = _load_net(args.net, SuperNet)
    device = _load_device(args.device)
    try:
        lut = profiler.build_lut(device, net, n=args.stack_n, trials=args.trials)
    except DeviceError as e:
        raise _keep_partial(e, f"{len(e.partial.entries)} entries",
                            _partial_lut_path(args.out),
                            lambda path: save_lut(e.partial, path)) from e
    save_lut(lut, args.out)
    return _finish(args, Path(args.out).parent, "lut build", getattr(device, "seed", None),
                   {"lut": args.out}, {"entries": len(lut.entries), "out": args.out})


def cmd_lut_from_model(args):
    net = _load_net(args.net, SuperNet)
    model = costmodel.load_model(args.model)
    lut = costmodel.lut_from_model(model, net, clock_ghz=args.clock_ghz)
    save_lut(lut, args.out)
    return _finish(args, Path(args.out).parent, "lut from-model", None,
                   {"lut": args.out}, {"entries": len(lut.entries), "out": args.out})


def cmd_costmodel_train(args):
    if args.records:
        records = costmodel.load_records(args.records)
    else:
        device = _load_device(args.device)
        if not isinstance(device, profiler.SimulatedVPU):
            raise HwnasError("--simulate needs the sim device; give records measured "
                             "on another device through --records")
        records = costmodel.simulate_records(device, args.simulate, seed=args.seed)
        if args.save_records:
            costmodel.save_records(records, args.save_records)
    cfg = costmodel.CostModelConfig(epochs=args.epochs, lr=args.lr, seed=args.seed)
    model, report = costmodel.train_cost_model(records, cfg)
    costmodel.save_model(model, args.out)
    artifacts = {"model": args.out}
    if args.save_records:
        artifacts["records"] = args.save_records
    return _finish(args, Path(args.out).parent, "costmodel train", args.seed, artifacts,
                   {"train_mape_percent": report.final_train_mape,
                    "val_mape_percent": report.final_val_mape, "out": args.out})


def cmd_costmodel_eval(args):
    model = costmodel.load_model(args.model)
    records = costmodel.load_records(args.records)
    mape = costmodel.evaluate_mape(model, records)
    _emit(args, {"mape_percent": mape, "records": len(records)})
    return 0


def cmd_search_run(args):
    net = _load_net(args.net, SuperNet)
    lut = load_lut(args.lut)
    settings = read_object(args.config) if args.config else {}
    for f in dataclasses.fields(search.SearchConfig):  # a flag given overrides the file
        if getattr(args, f.name) is not None:
            settings[f.name] = getattr(args, f.name)
    cfg = from_fields(search.SearchConfig, settings, args.config or "search run")
    train, val = _splits(net, args, "train", "val")
    alphas, rounds = search.train_search(net, train, val, cfg, lut)

    out_dir = Path(args.out_dir)
    hist_path = out_dir / "history.csv"
    write_text(hist_path, search.history_csv(rounds))
    arch_path = out_dir / "arch.json"
    write_object(arch_path, {"alphas": [a.tolist() for a in alphas]}, indent=2)
    net_path = out_dir / "supernet.net.json"
    save_net(net, net_path)
    return _finish(args, out_dir, "search run", cfg.seed,
                   {"history": hist_path, "arch": arch_path, "supernet": net_path},
                   {"rounds": len(rounds), "out_dir": str(out_dir)})


def _load_arch(path) -> list:
    alphas = field(read_object(path), "alphas", list, path)
    return [numbers(a, f"{path}: alphas[{i}]") for i, a in enumerate(alphas)]


def cmd_derive(args):
    net = _load_net(args.net, SuperNet)
    compact = search.derive_compact(net, _load_arch(args.arch))
    save_net(compact, args.out)
    return _finish(args, Path(args.out).parent, "derive", None, {"compact": args.out},
                   {"chosen": list(compact.chosen_indices),
                    "tie_stages": list(compact.tie_stages), "out": args.out})


def cmd_train_compact(args):
    net = _load_net(args.net, CompactNet)
    (train,) = _splits(net, args, "train")
    model = search.train_compact(net, train, steps=args.steps,
                                 batch_size=args.batch_size, lr=args.lr,
                                 weight_decay=args.weight_decay, seed=args.seed)
    save_checkpoint(model.named_parameters(), args.out)
    return _finish(args, Path(args.out).parent, "train-compact", args.seed,
                   {"checkpoint": args.out}, {"steps": args.steps, "out": args.out})


def cmd_eval(args):
    net = _load_net(args.net, CompactNet)
    model = search.CompactNetModel(net, seed=args.seed)
    load_checkpoint(model.named_parameters(), args.checkpoint)
    (test,) = _splits(net, args, "test")
    metrics = {}
    if net.task is Task.Classification:
        metrics["test_accuracy"] = search.accuracy(model, test)
    else:
        x, y = test
        pred = model.forward(x)
        res = datasets.psnr(pred, y, peak=1.0)
        metrics["test_psnr_db"] = res.db
        metrics["psnr_exact_match"] = res.exact
    if args.lut:
        metrics["lut_latency_ms"] = compact_latency(net, load_lut(args.lut))
    if args.out:
        write_object(args.out, metrics, indent=2)
        return _finish(args, Path(args.out).parent, "eval", args.seed,
                       {"metrics": args.out}, metrics)
    _emit(args, metrics)
    return 0


def cmd_lint(args):
    net = _load_net(args.net)
    findings = lint.lint_network(net, streaming_threshold_bytes=args.streaming_threshold)
    if args.json:
        print(lint.findings_to_json(findings), end="")
    else:
        print(lint.findings_to_table(findings), end="")
    if args.out:
        write_text(args.out, lint.findings_to_json(findings))
    if lint.has_warnings(findings) and not args.exit_zero:
        return 1
    return 0


def _write_calibration_csv(path, pairs) -> None:
    """(predicted, measured) ms pairs under a `predicted_ms,measured_ms` header."""
    write_text(path, "predicted_ms,measured_ms\n"
               + "".join(f"{float(p)!r},{float(m)!r}\n" for p, m in pairs))


def cmd_calibrate(args):
    net = _load_net(args.net, SuperNet)
    lut = load_lut(args.lut)
    device = _load_device(args.device)
    prefix = Path(args.out_prefix)
    try:
        pairs, summary = profiler.calibrate(device, net, lut, num_samples=args.samples,
                                            seed=args.seed, trials=args.trials)
    except DeviceError as e:
        raise _keep_partial(e, f"{len(e.partial)} networks", Path(f"{prefix}.partial.csv"),
                            lambda path: _write_calibration_csv(path, e.partial)) from e
    csv_path = Path(f"{prefix}.csv")
    _write_calibration_csv(csv_path, pairs)
    json_path = Path(f"{prefix}.json")
    write_object(json_path, summary, indent=2)
    return _finish(args, prefix.parent, "calibrate", args.seed,
                   {"calibration_csv": csv_path, "calibration_json": json_path}, summary)


def _calibration_points(path) -> list:
    """The rows under a calibration CSV's header: one or more, each two finite numbers."""
    pts = []
    for line, row in enumerate(read_text(path).rstrip().splitlines()[1:] or [""], start=2):
        try:
            pt = tuple(map(float, row.split(",")))
        except ValueError:
            pt = ()
        if len(pt) != 2 or not all(map(math.isfinite, pt)):
            raise ParseError(f"must be two finite numbers, got {row!r:.80}", f"{path}:{line}")
        pts.append(pt)
    return pts


def cmd_report(args):
    manifest = read_object(args.manifest)
    out_dir = Path(args.out_dir)
    produced = {}
    summary = {"source_manifest": args.manifest, "command": manifest.get("command")}
    for name, entry in field(manifest, "artifacts", dict, args.manifest, default={}).items():
        if not isinstance(entry, dict):
            raise ParseError(f"artifact {name!r} must be an object", args.manifest)
        path = Path(field(entry, "path", str, args.manifest))
        if content_hash(path) != field(entry, "sha256", str, args.manifest):
            raise HwnasError(f"artifact {name} changed since manifest was written")
        if name == "calibration_csv":
            svg = out_dir / "calibration_scatter.svg"
            svg_scatter(_calibration_points(path), "predicted latency (ms)",
                        "measured latency (ms)", svg)
            produced["calibration_scatter"] = svg
    summary_path = out_dir / "report.json"
    summary["plots"] = {k: str(v) for k, v in produced.items()}
    write_object(summary_path, summary, indent=2)
    produced["summary"] = summary_path
    return _finish(args, out_dir, "report", None, produced,
                   {"out_dir": str(out_dir), "plots": len(produced) - 1})


# ---------------------------------------------------------------------------
# Argument parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hwnas",
        description="Hardware-latency-aware architecture search pipeline")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="cmd", required=True)

    lut = sub.add_parser("lut").add_subparsers(dest="lut_cmd", required=True)
    p = lut.add_parser("build", help="profile a search space on a device")
    p.add_argument("--net", required=True, help="supernet file or builtin space name")
    p.add_argument("--device", default="sim")
    p.add_argument("--out", required=True)
    p.add_argument("--stack-n", type=_number(int, ">= 1"), default=profiler.DEFAULT_STACK_N)
    p.add_argument("--trials", type=_number(int, ">= 1"), default=profiler.DEFAULT_TRIALS)
    p.set_defaults(func=cmd_lut_build)
    p = lut.add_parser("from-model", help="predict a LUT with a trained cost model")
    p.add_argument("--net", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--clock-ghz", type=_number(float, "> 0"), default=DEFAULT_CLOCK_GHZ)
    p.set_defaults(func=cmd_lut_from_model)

    cm = sub.add_parser("costmodel").add_subparsers(dest="cm_cmd", required=True)
    p = cm.add_parser("train")
    given = p.add_mutually_exclusive_group()  # records are saved only when simulated
    given.add_argument("--records", help="profile records (.records.jsonl)")
    p.add_argument("--simulate", type=_number(int, f">= {costmodel.MIN_RECORDS}"), default=500,
                   help="generate N records from the device when --records absent")
    given.add_argument("--save-records", help="where to write simulated records")
    p.add_argument("--device", default="sim")
    for name in ("epochs", "lr", "seed"):
        _setting(p, f"--{name}", costmodel.CostModelConfig, name)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_costmodel_train)
    p = cm.add_parser("eval")
    p.add_argument("--model", required=True)
    p.add_argument("--records", required=True)
    p.set_defaults(func=cmd_costmodel_eval)

    p = sub.add_parser("search").add_subparsers(dest="search_cmd", required=True) \
        .add_parser("run")
    p.add_argument("--net", required=True)
    p.add_argument("--lut", required=True)
    p.add_argument("--config", help=".search.json config file")
    for f in dataclasses.fields(search.SearchConfig):  # --weight-steps: weight_steps_per_round
        flag = "--" + f.name.removesuffix("_per_round").replace("_", "-")
        _setting(p, flag, search.SearchConfig, f.name, default=None)
    p.add_argument("--out-dir", required=True)
    _add_dataset_args(p)
    p.set_defaults(func=cmd_search_run)

    p = sub.add_parser("derive")
    p.add_argument("--net", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("train-compact")
    p.add_argument("--net", required=True)
    p.add_argument("--steps", type=_number(int, ">= 1"), default=300)
    p.add_argument("--batch-size", type=_number(int, ">= 1"), default=32)
    p.add_argument("--lr", type=_number(float, "> 0"), default=0.05)
    p.add_argument("--weight-decay", type=_number(float, ">= 0"), default=0.0)
    p.add_argument("--seed", type=_number(int, ">= 0"), default=0)
    p.add_argument("--out", required=True)
    _add_dataset_args(p)
    p.set_defaults(func=cmd_train_compact)

    p = sub.add_parser("eval")
    p.add_argument("--net", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--lut", help="also report LUT latency of the net")
    p.add_argument("--seed", type=_number(int, ">= 0"), default=0)
    p.add_argument("--out", help="write metrics JSON here")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("lint")
    p.add_argument("--net", required=True)
    p.add_argument("--streaming-threshold", type=_number(int, ">= 0"),
                   default=lint.DEFAULT_STREAMING_THRESHOLD_BYTES)
    p.add_argument("--out", help="write findings JSON here")
    p.add_argument("--exit-zero", action="store_true",
                   help="exit 0 even when warnings are present")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("calibrate")
    p.add_argument("--net", required=True)
    p.add_argument("--lut", required=True)
    p.add_argument("--device", default="sim")
    p.add_argument("--samples", type=_number(int, ">= 1"), default=50)
    p.add_argument("--trials", type=_number(int, ">= 1"), default=profiler.DEFAULT_TRIALS)
    p.add_argument("--seed", type=_number(int, ">= 0"), default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)
    return ap


# mallopt parameters of glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_heap():
    """Pin glibc's malloc thresholds where its own rule tops out: blocks up
    to 32 MiB come from the heap, and up to 64 MiB of free heap top is kept.

    Both thresholds start at 128 KiB and rise to fit the largest mapped
    block freed so far, so whether the multi-MB arrays of each training step
    page-fault afresh (the heap top given back and regrown, or each array
    mapped and unmapped) depends on what the process happened to free
    first. Not glibc: nothing to do."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (HwnasError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
