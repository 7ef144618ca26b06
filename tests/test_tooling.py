"""The benchmark tracer's hooks (fvbench/spans.py) against this package: every
class and module it names exists, and the names it cannot find are known."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "fvbench" / "spans.py"

# targets the tracer looks for and this package no longer defines: the
# zero_grad methods (backward passes overwrite the gradient stores),
# nn.adam_update (each Adam steps one flat store),
# evaluation._train_one_attacker (the probes train in lockstep) and
# evaluation.privacy_inference_attack (an attack trains every ensemble in one
# train_attacker_ensembles call), and the platforms' handle methods (the
# federation's round calls each platform's step methods in turn)
KNOWN_MISSING = {
    "Adam.zero_grad", "Aggregator.zero_grad", "ContrastiveDiscriminator.zero_grad",
    "LocalEncoder.zero_grad", "ParamBlock.zero_grad", "TaskHead.zero_grad",
    "TwoLayerMlp.zero_grad", "fairvfl.nn.adam_update",
    "fairvfl.evaluation._train_one_attacker", "fairvfl.evaluation.privacy_inference_attack",
    "InsensitivePlatform.handle", "SensitivePlatform.handle", "ServerPlatform.handle",
    "TaskPlatform.handle",
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("fvbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_with_known_missing_names():
    spans = _load_spans()
    # a class renamed in the package raises AttributeError here, as it would
    # in every traced benchmark run
    assert spans._targets()
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    # a renamed function shows up here instead of reading 0 in the benchmark
    assert tracer.missing == KNOWN_MISSING
