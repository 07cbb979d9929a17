"""Deterministic stand-in for a real-hardware latency tool.

Called by hwnas's command device as

    python3 device_stub.py GRAPH TRIALS --count-file PATH [--exit-code N]

It reads the serialized subgraph, estimates its latency with a small
MAC/byte cost model, and prints TRIALS non-negative latencies (ms), one per
line. The jitter on each trial is a hash of the graph text and the trial
index, so the same graph always gives the same lines. Every invocation
appends its exit status to the count file, which lets the benchmark
cross-check how often the device was really called.

Standard library only, so that a call costs an interpreter start and no
numpy import.
"""

import argparse
import hashlib
import json
import sys

OVERHEAD_MS = 0.2
MACS_PER_MS = 0.7e6 * 256
DMA_MS_PER_BYTE = 0.01 / 2 ** 20
SPATIAL = {"Conv", "DWConv", "MBConv", "AvgPool", "MaxPool"}


def _layer_cost_ms(op, c, h, w):
    """Cost of one layer on a [c, h, w] input, and its output shape."""
    kind, k, s = op["kind"], op["kernel"], op["stride"]
    out_c, r = op["out_channels"], op["scale_factor"]
    if kind == "Linear":
        ho = wo = 1
    elif kind in ("UpsampleNearest", "UpsampleBilinear", "DepthToSpace"):
        ho, wo = h * r, w * r
    else:
        pad = (k - 1) // 2 if kind in SPATIAL else 0
        ho, wo = (h + 2 * pad - k) // s + 1, (w + 2 * pad - k) // s + 1
    if kind == "Conv":
        macs = out_c * c * k * k * ho * wo
    elif kind == "PointwiseConv":
        macs = out_c * c * ho * wo
    elif kind == "DWConv":
        macs = c * k * k * ho * wo
    elif kind == "MBConv":
        num, _, den = str(op["expand_ratio"]).partition("/")
        hid = c * int(num) // int(den or 1)
        macs = hid * (c * h * w + k * k * ho * wo) + out_c * hid * ho * wo
    elif kind == "Linear":
        macs = c * h * w * out_c
    elif kind in ("UpsampleNearest", "UpsampleBilinear") and out_c != c:
        macs = out_c * c * ho * wo
    else:
        macs = c * h * w
    bytes_moved = 4 * (c * h * w + out_c * ho * wo)
    if kind == "Identity":
        return 0.0, (out_c, ho, wo)
    return macs / MACS_PER_MS + bytes_moved * DMA_MS_PER_BYTE, (out_c, ho, wo)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("graph")
    ap.add_argument("trials", type=int)
    ap.add_argument("--count-file", required=True)
    ap.add_argument("--exit-code", type=int, default=0)
    args = ap.parse_args(argv)
    with open(args.count_file, "a", encoding="utf-8") as fh:
        fh.write(f"{args.exit_code}\n")
    if args.exit_code:
        print("device stub: failure requested", file=sys.stderr)
        return args.exit_code
    with open(args.graph, "r", encoding="utf-8") as fh:
        text = fh.read()
    net = json.loads(text)
    c, h, w = net["input_shape"]
    total = OVERHEAD_MS
    for op in net["layers"]:
        ms, (c, h, w) = _layer_cost_ms(op, c, h, w)
        total += ms
    for t in range(args.trials):
        digest = hashlib.sha256(f"{t}:{text}".encode()).digest()
        jitter = 1.0 + 0.02 * (int.from_bytes(digest[:4], "big") / 2 ** 32 - 0.5)
        print(repr(total * jitter))
    return 0


if __name__ == "__main__":
    sys.exit(main())
