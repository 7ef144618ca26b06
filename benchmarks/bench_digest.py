"""Throughput of the two digest paths, and what payload hashing costs a run.

An exported training run (`fairvfl train`) hashes every exchanged payload
with `digest.digest_array` (BLAKE2b-64 from hashlib). `digest.digest_text`
(pure-Python FNV-1a) hashes only short names and configs: it seeds the RNG
streams. This prints MB/s of both paths on the same buffer sizes, then
measures the payload bytes of one training round of a preset and projects
the hashing time of that preset's full training run under each path.

Usage: PYTHONPATH=src python3 benchmarks/bench_digest.py
           [--sizes 1024,65536,1048576] [--preset synthetic-smoke]
"""

import argparse
import time

import numpy as np

from fairvfl import digest
from fairvfl.config import PRESET_NAMES, preset
from fairvfl.data import iterate_batches
from fairvfl.runner import build_run_federation, make_dataset


def throughput(fn, arg, nbytes: int, min_time: float = 0.3) -> float:
    """MB/s over repeated calls until min_time elapses."""
    fn(arg)  # warm up
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < min_time:
        fn(arg)
        n += 1
    elapsed = time.perf_counter() - t0
    return nbytes * n / elapsed / 1e6


def run_payload_bytes(name: str) -> tuple[float, int]:
    """(payload bytes per training sample, samples hashed per full run) of a
    preset, from one full training round; every payload carries one row per
    sample of 8-byte elements (float64 values, int64 sample ids)."""
    cfg = preset(name)
    ds, pa = make_dataset(cfg)
    fed = build_run_federation(cfg, ds, pa, payload_digests=True)
    ids = iterate_batches(ds, "train", cfg.batch_size, cfg.seed)[0]
    records = fed.run_training_round(ids).records
    per_sample = sum(8 * r.float_count for r in records) / len(ids)
    return per_sample, len(ds.split_ids("train")) * cfg.epochs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="1024,65536,1048576",
                        help="comma-separated buffer sizes in bytes")
    parser.add_argument("--preset", default="synthetic-smoke", choices=PRESET_NAMES,
                        help="preset whose full training run is projected")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    rng = np.random.default_rng(0)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    print(f"{'size':>10}  {'FNV-1a text MB/s':>17}  {'BLAKE2b array MB/s':>19}  {'ratio':>8}")
    rates = {}
    for size in sizes:
        text = rng.choice(letters, size=size).tobytes().decode("ascii")
        arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8)  # the same bytes
        fnv = throughput(digest.digest_text, text, size)
        blake = throughput(digest.digest_array, arr, size)
        print(f"{size:>10}  {fnv:>17.2f}  {blake:>19.2f}  {blake / fnv:>7.1f}x")
        rates[size] = (fnv, blake)

    per_sample, samples = run_payload_bytes(args.preset)
    total = per_sample * samples
    fnv, blake = rates[max(sizes)]
    print(f"\n{args.preset}: {per_sample:.0f} payload bytes per training sample, "
          f"{samples} samples per run, {total / 1e6:.1f} MB hashed per run")
    print(f"projected payload-hashing time per run at the {max(sizes)}-byte rates:")
    print(f"  BLAKE2b-64 (digest_array): {total / (blake * 1e6):8.3f} s")
    print(f"  FNV-1a pure Python:        {total / (fnv * 1e6):8.1f} s")


if __name__ == "__main__":
    main()
