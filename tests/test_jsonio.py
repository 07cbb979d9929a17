"""Every loader under malformed input: one random subtree of a valid file is
replaced by a random JSON value (NaN and infinities included, as Python's
`json` writes them), and the loader must either return or raise
`HwnasError`, which the CLI turns into exit 1."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hwnas import cli, costmodel, graph, nncore, search, spaces
from hwnas.errors import HwnasError, ParseError
from hwnas.jsonio import field, from_fields, read_object
from hwnas.latency import LatencyTable, load_lut, save_lut

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)

_SUPERNET = spaces.BUILTIN_SPACES["toy-classification"]()
_COMPACT = _SUPERNET.path((0, 1, 2), tie_stages=(1,))
_TINY = graph.CompactNet(task=graph.Task.Classification,
                         input_shape=graph.TensorShape(2, 2, 2), num_classes=2,
                         layers=(graph.OperatorSpec(graph.OpKind.Linear, 8, 2),))


def _written(save, obj):
    """The JSON document that `save(obj, path)` writes."""
    def make(path):
        save(obj, path)
        return json.loads(path.read_text())
    return make


def _constant(doc):
    return lambda path: doc


def _zero_model() -> costmodel.CostModel:
    h, d = costmodel.HIDDEN[0], costmodel.FEATURE_DIM
    return costmodel.CostModel(w1=np.zeros((h, d)), b1=np.zeros(h), w2=np.zeros((h, h)),
                               b2=np.zeros(h), w3=np.zeros(h), b3=1.0,
                               feat_mean=np.zeros(d), feat_std=np.ones(d))


def _load_checkpoint(path):
    nncore.load_checkpoint(search.CompactNetModel(_TINY).named_parameters(), path)


_RECORD = {"op": {"kind": "Conv", "in_channels": 16, "out_channels": 16, "kernel": 3},
           "input_shape": [16, 8, 8], "measured_cycles": 1000.0}

# name -> (valid document from a path, loader of a path)
LOADERS = {
    "supernet": (_constant(json.loads(graph.serialize(_SUPERNET))), graph.load_net),
    "compact-net": (_constant(json.loads(graph.serialize(_COMPACT))), graph.load_net),
    "lut": (_written(save_lut, LatencyTable({"Conv:k3": 0.5, "Identity": 0.0},
                                            source="MeasuredDevice", device="sim")),
            load_lut),
    "model": (_written(costmodel.save_model, _zero_model()), costmodel.load_model),
    "checkpoint": (_written(nncore.save_checkpoint,
                            search.CompactNetModel(_TINY).named_parameters()),
                   _load_checkpoint),
    "records": (_constant(_RECORD), costmodel.load_records),
    "search-config": (_constant({"rounds": 3, "lambda2": 0.5, "lr_weights": 0.02,
                                 "batch_size": 8, "seed": 1}),
                      lambda path: from_fields(search.SearchConfig, read_object(path), path)),
    "device-sim": (_constant({"type": "sim", "clock_ghz": 0.7, "channel_granularity": 16,
                              "noise_sigma_rel": 0.05}),
                   lambda path: cli._load_device(str(path))),
    "device-command": (_constant({"type": "command", "command_template": "true {graph}",
                                  "timeout_s": 5}),
                       lambda path: cli._load_device(str(path))),
    "arch": (_constant({"alphas": [[0.0, 1.0, -1.0], [0.5, 0.5, 0.0], [2, 0, 0]]}),
             cli._load_arch),
}


def _replace_subtree(draw, doc):
    """`doc` with one random subtree (maybe the root) replaced by a random value."""
    if isinstance(doc, (dict, list)) and doc and draw(st.integers(0, 3)) > 0:
        key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
        doc = doc.copy()
        doc[key] = _replace_subtree(draw, doc[key])
        return doc
    return draw(JSON_VALUES)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_loader_returns_or_raises_hwnas_error(kind, data, tmp_path_factory):
    make, load = LOADERS[kind]
    path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}.json"
    doc = _replace_subtree(data.draw, make(path))
    path.write_text(json.dumps(doc) + "\n")
    try:
        load(path)
    except HwnasError:
        pass


def test_field_number_rules():
    doc = {"int": 3, "float": 1.5, "bool": True, "huge": 10 ** 400, "nan": math.nan}
    assert field(doc, "int", float, "f") == 3
    assert field(doc, "missing", int, "f", default=None) is None
    for name, kind in [("bool", float), ("bool", int), ("huge", float), ("nan", float),
                       ("float", int), ("missing", int)]:
        with pytest.raises(ParseError):
            field(doc, name, kind, "f")
