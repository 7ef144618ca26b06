"""Per-pass timings of the fairness games, attacker training and the model build.

Measures ms per call, at the paper widths (rep 400, gender H=32, age H=64)
and at the C12 widths (rep 64, one H=4 feature), of:

- ``cdisc_step``: ``contrastive_discriminator_step`` (forward, backward, Adam);
- ``cdisc_frozen``: ``contrastive_adversarial_grad`` under the frozen
  discriminator;
- ``mapper_ascent``: ``cal_mapper_gradient``, then the mapper's Adam step,
  as a training round runs them;
- ``mapper_descent``: the mapper's descent on a returned bias-discriminator
  gradient (backward, Adam step, protected-rep recompute), as a training
  round runs it;
- ``mapper_frozen``: the frozen mapper's backward of an adversarial gradient
  to the unified rep.

It also times ``select_negatives`` alone at batch sizes 32, 500 and 1000
(top pool 5, protected width 8), on distinct relevances, on rounded,
tie-heavy ones, and on all-equal ones (collapsed representations): batch 32
is a training round's, 1000 a full-batch round's.

At both widths it also times building the model:

- ``bundle_build``: a ``ModelBundle`` build, as every run and attack makes;
- ``checkpoint_load``: ``load_checkpoint`` of a saved checkpoint into a
  built bundle.

At both widths it also measures memory, after building a federation and
training it one epoch (``stores``): the process's peak RSS and the MB held
by the bundle's distinct store buffers, one figure each for the parameters,
the gradients and the two Adam moments. A buffer that several optimizer
groups share counts once. The peak is Linux's ``VmHWM``, which a new program
starts afresh: ``ru_maxrss`` of a child starts at the spawning process's own
peak, so in a child of this script it reads the passes' peak at either width.

And it times ``train_attacker_ensemble`` at the synthetic-smoke preset's
attack settings (k = 5, hidden 128, batch 128, lr 1e-3) on its 1,200 train
rows, for a fixed 10 epochs (patience 10, so no probe stops early), on
random reps and labels:

- ``fairness``: rep width 64, two classes, as on the unified rep;
- ``privacy``: width 16, four classes, as on a protected rep.

And it times ``cmd_attack`` (``attack``), which trains an attack's
ensembles concurrently, a thread per usable CPU, on a checkpoint saved
after one training epoch, and reports the ms per attack and the process's
peak RSS (``VmHWM``) after the timed attacks. It runs at two settings, each
with attack ``max_epochs`` = ``patience`` = 10 as the benchmark runs them:

- ``smoke``: the synthetic-smoke preset (k = 5, two privacy fields, three
  ensembles);
- ``paper``: the paper widths (k = 2, two privacy fields, six ensembles).

And it runs ``cmd_train`` at the paper widths for 6 epochs (``train_fresh``)
and reports its wall seconds, and the median ms and the mean minor page
faults (``ru_minflt``) per training round after the first epoch: what a
plain ``fairvfl train`` pays when freed memory goes back to the OS and is
faulted in again, which a long-running benchmark process never shows.

Each build, stores, ensemble, attack and training case runs in a fresh
interpreter of its own, so the heap and the caches the passes before it
leave behind do not skew it, and two trees' builds can be compared.

The script calls the mappers' backward with its ``params``/``inputs``
flags. It times trees whose discriminator steps take no optimizer (each
steps its component's ``opt``) and whose ``train_attacker_ensemble`` takes
an ``evaluation.AttackConfig``; older trees passed the optimizer and the
probe settings one by one, and this script cannot time them. Compare two
commits on one machine by running it against each tree's ``src/`` with its
own label; every run adds or replaces its label's entry in the output file:

    python benchmarks/bench_passes.py --label change
    python benchmarks/bench_passes.py --src OTHER_TREE/src --label parent
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads, so every commit runs alike.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
PASSES = ("cdisc_step", "cdisc_frozen", "mapper_ascent", "mapper_descent",
          "mapper_frozen")
NEGATIVE_BATCHES = (32, 500, 1000)
BUILDS = ("bundle_build", "checkpoint_load")
STORES = ("params", "grads", "m", "v")
# (rep width, classes) of the attacker ensembles
ENSEMBLES = {"fairness": (64, 2), "privacy": (16, 4)}
ATTACKS = ("smoke", "paper")
TRAIN_FRESH_EPOCHS = 6


def widths_config(name: str):
    from fairvfl.config import ExperimentConfig

    if name == "paper":
        return ExperimentConfig(
            mode="fairvfl",
            dataset={"kind": "synthetic", "n_samples": 400, "n_platforms": 3,
                     "numeric_per_platform": 2, "categorical_per_platform": 2,
                     "cat_vocab": 6, "sensitive_classes": {"gender": 2, "age": 5},
                     "rho": 0.6, "seed": 1},
            n_platforms=3,
            widths={"rep": 400, "protected": {"gender": 32, "age": 64}},
            lam={"gender": 1e2, "age": 1e1}, gamma={"gender": 0.25, "age": 0.25},
            optim={"lr": 1e-4}, batch_size=32, epochs=1, seed=1)
    return ExperimentConfig(
        mode="fairvfl",
        dataset={"kind": "synthetic", "n_samples": 4000, "n_platforms": 2,
                 "numeric_per_platform": 2, "categorical_per_platform": 1,
                 "cat_vocab": 4, "sensitive_classes": {"attr": 2},
                 "rho": 0.9, "seed": 1},
        n_platforms=2,
        widths={"rep": 64, "protected": {"attr": 4}, "emb_dim": 8,
                "encoder_hidden": 32, "attn_heads": 4, "pool_hidden": 32,
                "head_hidden": 32, "mapper_hidden": 16, "cdisc_hidden": 32,
                "bdisc_hidden": 16},
        lam={"attr": 100.0}, gamma={"attr": 0.25},
        optim={"lr": 1e-3}, batch_size=32, epochs=1, seed=1)


def attack_config(setting: str):
    """The ``ATTACKS`` setting's config, with its attack section as the
    benchmark's workload of the same widths sets it."""
    from fairvfl.config import preset

    if setting == "smoke":
        base = preset("synthetic-smoke")
        return base.with_overrides(attack={**base.attack, "max_epochs": 10, "patience": 10})
    return widths_config("paper").with_overrides(
        attack={"k": 2, "max_epochs": 10, "patience": 10,
                "privacy_fields": ["cat0_0", "cat1_0"]})


def peak_rss_mb() -> float:
    """This process's peak RSS (Linux's ``VmHWM``), in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0


def ms_per_call(fn, target_s: float, repeats: int) -> float:
    """Median over ``repeats`` blocks of the mean ms per call in a block of
    about ``target_s`` seconds."""
    for _ in range(5):
        fn()
    t0 = time.perf_counter()
    calls = 0
    while time.perf_counter() - t0 < 0.05:
        fn()
        calls += 1
    per_block = max(1, int(calls * target_s / (time.perf_counter() - t0)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(per_block):
            fn()
        samples.append((time.perf_counter() - t0) * 1e3 / per_block)
    return statistics.median(samples)


def pass_functions(widths_name: str):
    """(case name, {pass: zero-argument callable}) per sensitive feature."""
    import numpy as np

    from fairvfl.adversarial import (
        cal_mapper_gradient,
        contrastive_adversarial_grad,
        contrastive_discriminator_step,
        select_negatives,
    )
    from fairvfl.data import iterate_batches
    from fairvfl.models import forward_unified
    from fairvfl.runner import build_run_federation, make_dataset

    cfg = widths_config(widths_name)
    ds, pa = make_dataset(cfg)
    fed = build_run_federation(cfg, ds, pa)
    batches = iterate_batches(ds, "train", cfg.batch_size, 0)[:3]
    for ids in batches:
        fed.run_training_round(ids)
    server = fed.server
    cols = [p.shard.take(batches[-1]) for p in fed.insensitive]
    unified, _ = forward_unified(fed.bundle, cols)
    n = unified.shape[0]
    rng = np.random.default_rng(0)
    for feature in fed.bundle.features:
        mapper, cdisc = server.mappers[feature], server.cdiscs[feature]
        protected, mcache = mapper.forward(unified)
        neg_idx = select_negatives(protected, cfg.top_pool, np.random.default_rng(0))
        grad_protected = rng.normal(size=protected.shape) / n

        def mapper_ascent(mapper=mapper, opt=mapper.opt, mcache=mcache, g=grad_protected):
            cal_mapper_gradient(mapper, mcache, g, 0.25)
            opt.step()

        def mapper_descent(mapper=mapper, opt=mapper.opt, mcache=mcache, g=grad_protected):
            mapper.backward(mcache, g, inputs=False)
            opt.step()
            mapper.forward(unified)

        yield f"{widths_name}/{feature}", {
            "cdisc_step": lambda c=cdisc, p=protected, q=neg_idx:
                contrastive_discriminator_step(c, p, unified, q),
            "cdisc_frozen": lambda c=cdisc, p=protected, q=neg_idx:
                contrastive_adversarial_grad(c, p, unified, q),
            "mapper_ascent": mapper_ascent,
            "mapper_descent": mapper_descent,
            "mapper_frozen": lambda m=mapper, c=mcache, g=grad_protected:
                m.backward(c, g, params=False),
        }


def negatives_functions():
    """{case name: zero-argument callable} for ``select_negatives`` alone."""
    import numpy as np

    from fairvfl.adversarial import select_negatives

    rng = np.random.default_rng(0)
    cases = {}
    for n in NEGATIVE_BATCHES:
        protected = rng.normal(size=(n, 8))
        for values, prot in (("distinct", protected), ("ties", np.round(protected)),
                             ("equal", np.ones_like(protected))):
            cases[f"n{n}/{values}"] = lambda p=prot, r=np.random.default_rng(0): \
                select_negatives(p, 5, r)
    return cases


def build_functions(widths_name: str, tmp: Path):
    """{build: zero-argument callable} at the widths' config: a
    ``ModelBundle`` build, and a checkpoint load into a built bundle."""
    from fairvfl.checkpoint import load_checkpoint, save_checkpoint
    from fairvfl.data import partition_vertical
    from fairvfl.models import ModelBundle
    from fairvfl.runner import make_dataset

    cfg = widths_config(widths_name)
    ds, pa = make_dataset(cfg)
    shards, _, _ = partition_vertical(ds, pa)
    args = ([s.schema() for s in shards], cfg.rep_widths(), ds.n_task_classes,
            {f: ds.sensitive[f].n_classes for f in ds.sensitive}, cfg.seed,
            cfg.optim_params(), cfg.p_drop)
    bundle = ModelBundle(*args)
    path = tmp / f"{widths_name}.fvfl"
    save_checkpoint(bundle, path)
    return {"bundle_build": lambda: ModelBundle(*args),
            "checkpoint_load": lambda: load_checkpoint(bundle, path)}


def time_build(widths_name: str, build: str, block_s: float, repeats: int) -> float:
    """ms per call of one build case, timed in this process."""
    with tempfile.TemporaryDirectory(prefix="bench_passes-") as tmp:
        return ms_per_call(build_functions(widths_name, Path(tmp))[build], block_s, repeats)


def measure_stores(widths_name: str, block_s: float, repeats: int) -> dict[str, float]:
    """Peak RSS and the MB of the bundle's distinct store buffers after one
    training epoch at the widths' config, in this process (``block_s`` and
    ``repeats`` are unused: ``fresh`` passes every case both)."""
    from fairvfl.data import iterate_batches
    from fairvfl.runner import build_run_federation, make_dataset

    cfg = widths_config(widths_name)
    ds, pa = make_dataset(cfg)
    fed = build_run_federation(cfg, ds, pa)
    for ids in iterate_batches(ds, "train", cfg.batch_size, 0):
        fed.run_training_round(ids)
    out = {"peak_rss_mb": peak_rss_mb()}
    for store in STORES:
        buffers = {}
        for opt in fed.bundle.optim.values():
            arr = getattr(opt, store)
            while arr.base is not None:  # a view: count the buffer it is cut from
                arr = arr.base
            buffers[id(arr)] = arr.nbytes
        out[f"{store}_mb"] = sum(buffers.values()) / 1e6
    return out


def time_ensemble(probe: str, block_s: float, repeats: int) -> float:
    """ms per ``train_attacker_ensemble`` call of one ``ENSEMBLES`` case,
    timed in this process."""
    import numpy as np

    from fairvfl.evaluation import AttackConfig, train_attacker_ensemble

    width, n_classes = ENSEMBLES[probe]
    rng = np.random.default_rng(0)
    reps = rng.normal(size=(1200, width))
    labels = rng.integers(0, n_classes, size=1200)
    atk = AttackConfig(k=5, hidden=128, lr=1e-3, batch=128, max_epochs=10, patience=10)
    return ms_per_call(lambda: train_attacker_ensemble(reps, labels, atk, 0, f"bench/{probe}"),
                       block_s, repeats)


def time_attack(setting: str, block_s: float, repeats: int) -> dict[str, float]:
    """ms per ``cmd_attack`` call at one ``ATTACKS`` setting, on a checkpoint
    saved after one training epoch, and the peak RSS after the timed calls,
    in this process."""
    from fairvfl.checkpoint import save_checkpoint
    from fairvfl.data import iterate_batches
    from fairvfl.runner import build_run_federation, cmd_attack, make_dataset

    cfg = attack_config(setting)
    ds, pa = make_dataset(cfg)
    fed = build_run_federation(cfg, ds, pa)
    for ids in iterate_batches(ds, "train", cfg.batch_size, 0):
        fed.run_training_round(ids)
    with tempfile.TemporaryDirectory(prefix="bench_passes-") as tmp:
        path = Path(tmp) / f"{setting}.fvfl"
        save_checkpoint(fed.bundle, path)
        del fed  # the attacks run as in `fairvfl attack`, with no training model alive
        ms = ms_per_call(lambda: cmd_attack(cfg, path), block_s, repeats)
    return {"ms": ms, "peak_rss_mb": peak_rss_mb()}


def train_fresh(block_s: float, repeats: int) -> dict[str, float]:
    """``cmd_train`` at the paper widths for ``TRAIN_FRESH_EPOCHS`` epochs, in
    this process: its wall seconds, and the median ms and the mean minor page
    faults per training round after the first epoch (``block_s`` and
    ``repeats`` are unused: ``fresh`` passes every case both)."""
    import resource

    from fairvfl.protocol.federation import Federation
    from fairvfl.runner import cmd_train

    rounds = []  # (ms, minor faults) of each training round
    run_round = Federation.run_training_round

    def counted_round(fed, ids):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        result = run_round(fed, ids)
        rounds.append(((time.perf_counter() - t0) * 1e3,
                       resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
        return result

    Federation.run_training_round = counted_round
    cfg = widths_config("paper").with_overrides(epochs=TRAIN_FRESH_EPOCHS)
    with tempfile.TemporaryDirectory(prefix="bench_passes-") as tmp:
        t0 = time.perf_counter()
        cmd_train(cfg, tmp)
        wall_s = time.perf_counter() - t0
    later = rounds[len(rounds) // TRAIN_FRESH_EPOCHS:]
    return {"wall_s": wall_s,
            "round_ms_p50": statistics.median(ms for ms, _ in later),
            "faults_per_round": statistics.mean(faults for _, faults in later)}


# A ``time_build``, ``measure_stores``, ``time_ensemble``, ``time_attack`` or
# ``train_fresh`` call in a fresh interpreter, its result printed as JSON.
# argv: the src/ directory, this script's directory, the function's name,
# then its arguments, the last two being the block seconds and the repeats.
_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import bench_passes
fn = getattr(bench_passes, sys.argv[3])
print(json.dumps(fn(*sys.argv[4:-2], float(sys.argv[-2]), int(sys.argv[-1]))))
"""


def fresh(src: Path, fn: str, args: tuple[str, ...], block_s: float, repeats: int):
    out = subprocess.run([sys.executable, "-c", _CHILD, str(src.resolve()),
                          str(Path(__file__).resolve().parent), fn, *args,
                          str(block_s), str(repeats)],
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def commit_of(src: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory whose fairvfl to measure")
    parser.add_argument("--label", default="change", help="entry name in the output file")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_passes.json")
    parser.add_argument("--block-s", type=float, default=0.2, help="seconds per timed block")
    parser.add_argument("--repeats", type=int, default=7, help="timed blocks per pass")
    args = parser.parse_args()

    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    import fairvfl

    if Path(fairvfl.__file__).resolve().parent != (args.src / "fairvfl").resolve():
        sys.exit(f"bench_passes: imported fairvfl from outside {args.src}")

    cases = {}
    for widths_name in ("paper", "c12"):
        for case, fns in pass_functions(widths_name):
            cases[case] = {name: round(ms_per_call(fns[name], args.block_s, args.repeats), 4)
                           for name in PASSES}
            print(case, " ".join(f"{k}={v:.3f}ms" for k, v in cases[case].items()))
    negatives = {case: round(ms_per_call(fn, args.block_s, args.repeats), 4)
                 for case, fn in negatives_functions().items()}
    print("select_negatives", " ".join(f"{k}={v:.3f}ms" for k, v in negatives.items()))
    builds = {}
    for widths_name in ("paper", "c12"):
        builds[widths_name] = {
            name: round(fresh(args.src, "time_build", (widths_name, name),
                              args.block_s, args.repeats), 4)
            for name in BUILDS}
        print(f"{widths_name} builds",
              " ".join(f"{k}={v:.3f}ms" for k, v in builds[widths_name].items()))
    stores = {}
    for widths_name in ("paper", "c12"):
        stores[widths_name] = {k: round(v, 4) for k, v in fresh(
            args.src, "measure_stores", (widths_name,), args.block_s, args.repeats).items()}
        print(f"{widths_name} stores",
              " ".join(f"{k}={v:.2f}" for k, v in stores[widths_name].items()))
    ensembles = {probe: round(fresh(args.src, "time_ensemble", (probe,), args.block_s,
                                    args.repeats), 4)
                 for probe in ENSEMBLES}
    print("attacker ensembles", " ".join(f"{k}={v:.3f}ms" for k, v in ensembles.items()))
    attacks = {}
    for setting in ATTACKS:
        attacks[setting] = {k: round(v, 4) for k, v in fresh(
            args.src, "time_attack", (setting,), args.block_s, args.repeats).items()}
        print(f"{setting} attack", f"{attacks[setting]['ms']:.1f}ms",
              f"peak_rss_mb={attacks[setting]['peak_rss_mb']:.2f}")
    trained = {k: round(v, 4) for k, v in fresh(args.src, "train_fresh", (), args.block_s,
                                                 args.repeats).items()}
    print("train_fresh", " ".join(f"{k}={v:.3f}" for k, v in trained.items()))

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    doc[args.label] = {
        "commit": commit_of(args.src),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]},
        "unit": "ms per call, median of timed blocks; stores and peak RSS in MB; "
                "train_fresh in s, ms and faults per round",
        "passes": cases,
        "select_negatives": negatives,
        "builds": builds,
        "stores": stores,
        "attacker_ensembles": ensembles,
        "attack": attacks,
        "train_fresh": trained,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
