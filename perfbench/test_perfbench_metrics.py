"""BENCHMARK.json declares exactly the metrics run.py reports."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench_metrics import END_TO_END, PER_LAYER  # noqa: E402


def _declared():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_lists_agree():
    spec = _declared()
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert declared == list(ours), key


if __name__ == "__main__":
    test_metric_lists_agree()
    print("ok test_metric_lists_agree")
