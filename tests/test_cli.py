"""Command surface: presets, config plumbing, exit codes, and the sweep."""

import copy
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    JSON_VALUES,
    duplicate_last_block,
    join_checkpoint,
    poison_block,
    split_checkpoint,
)

from fairvfl import runner
from fairvfl.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from fairvfl.config import ExperimentConfig, preset, read_config_object
from fairvfl.errors import ConfigError, NumericError
from fairvfl.runner import apply_axis, cmd_sweep


class TestPresets:
    def test_adult_fairvfl_hyperparameters(self):
        cfg = preset("adult-fairvfl")
        cfg.validate()
        assert cfg.gamma == {"gender": 0.25, "age": 0.25}
        assert cfg.lam == {"gender": 1e2, "age": 1e1}
        assert cfg.batch_size == 32
        assert cfg.optim_params().lr == 1e-4
        assert cfg.rep_widths().rep == 400
        assert cfg.rep_widths().protected == {"gender": 32, "age": 64}
        assert cfg.rep_widths().emb_dim == 32
        assert cfg.top_pool == 5
        assert cfg.p_drop == 0.2

    def test_adult_vfl_disables_fairness(self):
        cfg = preset("adult-vfl")
        cfg.validate()
        assert cfg.mode == "vfl"
        assert set(cfg.lam.values()) == {0.0}
        assert set(cfg.gamma.values()) == {0.0}

    def test_synthetic_smoke_validates(self):
        preset("synthetic-smoke").validate()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("nope")

    def test_fingerprint_is_stable_and_sensitive(self):
        a = preset("synthetic-smoke")
        b = preset("synthetic-smoke")
        assert a.fingerprint() == b.fingerprint()
        c = a.with_overrides(seed=123)
        assert c.fingerprint() != a.fingerprint()

    def test_config_file_round_trip(self, tmp_path):
        cfg = preset("synthetic-smoke")
        path = tmp_path / "cfg.json"
        cfg.write(path)
        back = ExperimentConfig.from_dict(read_config_object(path))
        assert back.to_dict() == cfg.to_dict()
        assert back.fingerprint() == cfg.fingerprint()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"moed": "vfl"})

    def test_mismatched_weight_keys_rejected(self):
        cfg = preset("synthetic-smoke").with_overrides(lam={"other": 1.0})
        with pytest.raises(ConfigError, match="must match"):
            cfg.validate()

    @pytest.mark.parametrize("key, name", [("lam", "lambda"), ("gamma", "gamma")])
    def test_negative_weight_is_config_error(self, key, name):
        obj = preset("synthetic-smoke").to_dict()
        obj[key] = {"attr": -1.0}
        with pytest.raises(ConfigError, match=f"{name} weights must be >= 0"):
            ExperimentConfig.from_dict(obj).validate()


#: config files that once ended in a raw traceback, and the text the error names
_BAD_CONFIGS = {
    "list": ("[1,2]", "JSON object"),
    "dataset-int": ('{"dataset": 5}', "dataset"),
    "dataset-kind-list": ('{"dataset": {"kind": ["adult"]}}', "dataset.kind"),
    "attack-unknown-key": ('{"attack": {"bogus": 1}}', "bogus"),
    "width-string": ('{"widths": {"rep": "abc"}}', "widths.rep"),
    "zero-heads": ('{"widths": {"attn_heads": 0}}', "attn_heads"),
    "seed-string": ('{"seed": "x"}', "seed"),
    "seed-bool": ('{"seed": true}', "seed"),
    "p-drop-bool": ('{"p_drop": false}', "p_drop"),
    "p-drop-above-one": ('{"p_drop": 1.5}', "p_drop"),
    "p-drop-negative": ('{"p_drop": -0.1}', "p_drop"),
    "lam-int": ('{"lam": 3}', "lam"),
    "lam-negative": ('{"lam": {"attr": -1.0}}', "lambda weights must be >= 0"),
    "n-samples-string": ('{"dataset": {"kind": "synthetic", "n_samples": "x"}}',
                         "dataset.n_samples"),
    "batch-size-float": ('{"batch_size": 2.5}', "batch_size"),
    "lr-string": ('{"optim": {"lr": "x"}}', "optim.lr"),
    "lr-negative": ('{"optim": {"lr": -1e-3}}', "optim.lr"),
    "beta1-one": ('{"optim": {"beta1": 1.0}}', "optim.beta1"),
    "beta2-above-one": ('{"optim": {"beta2": 1.5}}', "optim.beta2"),
    "eps-negative": ('{"optim": {"eps": -1}}', "optim.eps"),
    "attack-batch-zero": ('{"attack": {"batch": 0}}', "attack.batch"),
    "attack-hidden-zero": ('{"attack": {"hidden": 0}}', "attack.hidden"),
    "attack-lr-negative": ('{"attack": {"lr": -1}}', "attack.lr"),
    "attack-max-epochs-zero": ('{"attack": {"max_epochs": 0}}', "attack.max_epochs"),
    "split-no-test": ('{"dataset": {"kind": "synthetic", "split_fractions": [0.9, 0.1, 0.0]}}',
                      "dataset.split_fractions"),
    "split-no-val": ('{"dataset": {"kind": "synthetic", "split_fractions": [1.0, 0.0, 0.0]}}',
                     "dataset.split_fractions"),
    "split-negative": (
        '{"dataset": {"kind": "synthetic", "split_fractions": [1.1, -0.05, -0.05]}}',
        "dataset.split_fractions"),
    "adult-sample-seed-string": (
        '{"dataset": {"kind": "adult", "path": "nowhere", "sample_seed": "x"}}',
        "dataset.sample_seed"),
    "adult-negative-sample-seed": (
        '{"dataset": {"kind": "adult", "path": "nowhere", "sample_seed": -1}}',
        "dataset.sample_seed"),
    "adult-no-path": ('{"dataset": {"kind": "adult"}}', "'path'"),
    "adult-unknown-key": (
        '{"dataset": {"kind": "adult", "path": "nowhere", "samle_seed": 3}}', "samle_seed"),
    "protected-width-without-feature": (
        '{"widths": {"protected": {"attr": 16, "zzz": 4}}, "lam": {"attr": 1.0, "zzz": 1.0},'
        ' "gamma": {"attr": 0.25, "zzz": 0.25}}', "widths.protected"),
    "feature-without-protected-width": (
        '{"dataset": {"kind": "synthetic", "sensitive_classes": {"attr": 2, "extra": 3}}}',
        "widths.protected"),
    "one-class-feature": ('{"dataset": {"kind": "synthetic", "sensitive_classes": {"attr": 1}}}',
                          "sensitive_classes"),
    "adult-other-feature": ('{"dataset": {"kind": "adult", "path": "nowhere"}}',
                            "widths.protected"),
    "non-utf8": (b'{"seed": "\xff\xfe"}', "cannot read config"),
    "missing": (None, "cannot read config"),
}


_BAD_CASES = [(name, True) for name in _BAD_CONFIGS] + \
             [(name, False) for name in ("list", "non-utf8", "missing")]


def _json_type(value):
    for name, types in (("null", type(None)), ("boolean", bool), ("number", (int, float)),
                        ("string", str), ("array", list), ("object", dict)):
        if isinstance(value, types):
            return name


def _value_paths(obj, prefix=()):
    """The key path of every value in a JSON document, nested ones included."""
    for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _value_paths(value, prefix + (key,))


class TestMalformedConfigs:
    @pytest.mark.parametrize("name, with_preset", _BAD_CASES,
                             ids=[f"{n}-{'preset' if p else 'bare'}" for n, p in _BAD_CASES])
    def test_bad_config_is_validation_error(self, tmp_path, capsys, name, with_preset):
        text, names = _BAD_CONFIGS[name]
        path = tmp_path / "bad.json"
        if isinstance(text, str):
            path.write_text(text, encoding="utf-8")
        elif text is not None:
            path.write_bytes(text)
        preset_args = ["--preset", "synthetic-smoke"] if with_preset else []
        rc = main(["train", *preset_args, "--config", str(path), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert err.startswith("error: ") and names in err
        assert not (tmp_path / "run").exists()

    def test_sweep_values_not_numbers(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "synthetic-smoke", "--axis", "seed",
                   "--values", "1,abc", "--out", str(tmp_path / "sweep")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: --values: ")

    @pytest.mark.parametrize("name", ["synthetic-smoke", "adult-fairvfl"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_swapped_value_passes_or_is_config_error(self, name, data):
        """A preset with one value, top-level or nested, swapped for a JSON
        value of another type validates or raises ConfigError, never anything
        else. ``validate`` opens no file, so the ADULT preset needs no data."""
        base = preset(name).to_dict()
        path = data.draw(st.sampled_from(list(_value_paths(base))))
        obj = copy.deepcopy(base)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        parent[path[-1]] = data.draw(
            JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
        try:
            ExperimentConfig.from_dict(obj).validate()
        except ConfigError:
            pass


def _smoke_overrides(tmp_path, **extra):
    """Shrink the smoke preset further so CLI tests stay fast."""
    over = {
        "dataset": {"kind": "synthetic", "n_samples": 300, "n_platforms": 2,
                    "sensitive_classes": {"attr": 2}, "rho": 0.9, "seed": 0},
        "widths": {"rep": 16, "protected": {"attr": 8}, "emb_dim": 4,
                   "encoder_hidden": 8, "attn_heads": 2, "pool_hidden": 6,
                   "head_hidden": 8, "mapper_hidden": 8, "cdisc_hidden": 8,
                   "bdisc_hidden": 8},
        "epochs": 1,
        "batch_size": 16,
        "attack": {"k": 1, "hidden": 8, "max_epochs": 3, "privacy_fields": ["cat0_0"]},
    }
    over.update(extra)
    path = tmp_path / "override.json"
    path.write_text(json.dumps(over), encoding="utf-8")
    return path


class TestCliCommands:
    def test_train_then_attack_then_audit(self, tmp_path, capsys):
        cfg_path = _smoke_overrides(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--seed", "3", "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "checkpoint.fvfl").exists()
        assert (out / "transcript.ndjson").exists()
        assert (out / "metrics.json").exists()
        saved = ExperimentConfig.from_dict(read_config_object(out / "config.json"))
        assert saved.seed == 3
        assert saved.fingerprint() == saved.fingerprint()

        rc = main(["attack", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--seed", "3", "--checkpoint", str(out / "checkpoint.fvfl"),
                   "--out", str(out / "attack")])
        assert rc == EXIT_OK
        report = json.loads((out / "attack" / "metrics.json").read_text())
        assert "attr" in report["fairness_f1"]

        rc = main(["audit", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--transcript", str(out / "transcript.ndjson"),
                   "--out", str(out / "audit")])
        assert rc == EXIT_OK
        banner = capsys.readouterr().out
        assert "0 violations" in banner

    def test_audit_flags_injected_edge(self, tmp_path, capsys):
        cfg_path = _smoke_overrides(tmp_path)
        out = tmp_path / "run"
        main(["train", "--preset", "synthetic-smoke", "--config", str(cfg_path),
              "--out", str(out)])
        bad = {"round": 0, "sender": "server", "receiver": "sensitive/attr",
               "kind": "ProtectedRepUpload", "shape": [4, 16], "float_count": 64,
               "payload_digest": "0x0"}
        with open(out / "transcript.ndjson", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        rc = main(["audit", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--transcript", str(out / "transcript.ndjson"), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "unified-to-sensitive" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [
        b'{"round":1e999,"sender":"a","receiver":"b","kind":"SampleIds",'
        b'"shape":[2],"float_count":2,"payload_digest":null}\n',
        b"\xff\xfe not utf-8\n",
        None,  # no file at all
    ], ids=["overflow", "not-utf8", "missing"])
    def test_audit_of_unreadable_transcript_is_validation_error(self, tmp_path, capsys,
                                                                content):
        path = tmp_path / "transcript.ndjson"
        if content is not None:
            path.write_bytes(content)
        rc = main(["audit", "--preset", "synthetic-smoke", "--transcript", str(path),
                   "--out", str(tmp_path / "audit")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("field, message", [
        ("nope", "not in the dataset"), ("num0_0", "is numeric"),
    ])
    def test_bad_privacy_field_fails_before_any_probe_trains(self, tmp_path, capsys,
                                                            monkeypatch, field, message):
        from fairvfl.evaluation import AttackerNet

        out = tmp_path / "run"
        assert main(["train", "--preset", "synthetic-smoke", "--config",
                     str(_smoke_overrides(tmp_path)), "--out", str(out)]) == EXIT_OK
        steps = []
        real_step = AttackerNet.train_step
        monkeypatch.setattr(AttackerNet, "train_step",
                            lambda net, x, y: steps.append(1) or real_step(net, x, y))
        cfg_path = _smoke_overrides(tmp_path, attack={
            "k": 1, "hidden": 8, "max_epochs": 3, "privacy_fields": ["cat0_0", field]})
        rc = main(["attack", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--checkpoint", str(out / "checkpoint.fvfl"),
                   "--out", str(out / "attack")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"privacy field {field!r} {message}" in err
        assert steps == []
        assert not (out / "attack").exists()

    @pytest.mark.parametrize("version", [99, None], ids=["v99", "no-version"])
    def test_attack_rejects_unknown_checkpoint_version(self, tmp_path, capsys, version):
        cfg_path = _smoke_overrides(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        ckpt = out / "checkpoint.fvfl"
        header, body = split_checkpoint(ckpt.read_bytes())
        if version is None:
            del header["version"]
        else:
            header["version"] = version
        ckpt.write_bytes(join_checkpoint(header, body))
        capsys.readouterr()
        rc = main(["attack", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--checkpoint", str(ckpt), "--out", str(out / "attack")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert ("version 99" if version else "no version") in err

    def test_attack_rejects_block_named_twice(self, tmp_path, capsys):
        cfg_path = _smoke_overrides(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        ckpt = out / "checkpoint.fvfl"
        ckpt.write_bytes(duplicate_last_block(ckpt.read_bytes(), 7.0))
        capsys.readouterr()
        rc = main(["attack", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--checkpoint", str(ckpt), "--out", str(out / "attack")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "appears twice in the manifest" in err
        assert not (out / "attack").exists()

    def test_attack_rejects_non_finite_checkpoint(self, tmp_path, capsys):
        cfg_path = _smoke_overrides(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        ckpt = out / "checkpoint.fvfl"
        poisoned, name = poison_block(ckpt.read_bytes(), 6)
        ckpt.write_bytes(poisoned)
        capsys.readouterr()
        rc = main(["attack", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--checkpoint", str(ckpt), "--out", str(out / "attack")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"block {name} holds a non-finite weight" in err
        assert not (out / "attack").exists()

    def test_train_stops_at_a_non_finite_weight(self, tmp_path, monkeypatch, capsys):
        """The last round's task-head step leaves a NaN weight while every
        payload stays finite: ``fairvfl train`` exits 2 naming the epoch and
        ``task_head`` before that epoch's validation, and writes no checkpoint."""
        from fairvfl.data import iterate_batches
        from fairvfl.protocol import federation

        cfg_path = _smoke_overrides(tmp_path, epochs=2)
        base = preset("synthetic-smoke").to_dict()
        base.update(json.loads(cfg_path.read_text()))
        cfg = ExperimentConfig.from_dict(base)
        ds, _ = runner.make_dataset(cfg)
        n_rounds = cfg.epochs * len(iterate_batches(ds, "train", cfg.batch_size, 0))
        rounds, validations = itertools.count(1), []
        train_step, representations = federation.TaskPlatform.train_step, runner.representations

        def poisoned(platform, ids, unified):
            out = train_step(platform, ids, unified)
            if next(rounds) == n_rounds:
                platform.head.opt.params[0] = np.nan
            return out

        def validate(*args, **kwargs):
            validations.append(args[2].size)
            return representations(*args, **kwargs)

        monkeypatch.setattr(federation.TaskPlatform, "train_step", poisoned)
        monkeypatch.setattr(runner, "representations", validate)
        out = tmp_path / "run"
        rc = main(["train", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--out", str(out)])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:")
        assert "non-finite weight in task_head after epoch 1" in err
        assert len(validations) == 1  # epoch 0's only
        assert next(rounds) == n_rounds + 1
        assert not (out / "checkpoint.fvfl").exists()

    def test_attack_passes_every_attack_field_to_the_probes(self, tmp_path, monkeypatch):
        """Every ensemble, fairness and privacy alike, trains with the
        config's attack section. Each field is set away from its default, so
        a field that fell back to the default would show."""
        import math

        from fairvfl import evaluation
        from fairvfl.evaluation import AttackConfig, AttackerNet

        fields = {"k": 2, "hidden": 7, "batch": 50, "lr": 0.02, "max_epochs": 2, "patience": 9}
        assert all(getattr(AttackConfig(), f) != v for f, v in fields.items())
        cfg_path = _smoke_overrides(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK

        # recorded by tag: the ensembles train on concurrent threads, in no
        # fixed call order
        ensembles, nets = [], []
        real_ensemble = evaluation.train_attacker_ensemble
        real_init, real_step = AttackerNet.__init__, AttackerNet.train_step

        def ensemble(reps, labels, atk, seed, tag):
            ensembles.append((tag, atk, reps.shape[0]))
            return real_ensemble(reps, labels, atk, seed, tag)

        def init(net, tag, k, in_width, hidden, n_classes, lr, seed, batch):
            nets.append((tag, {"k": k, "hidden": hidden, "lr": lr, "rows": 0, "steps": 0}))
            net.seen = nets[-1][1]
            real_init(net, tag, k, in_width, hidden, n_classes, lr, seed, batch)

        def step(net, x, y):
            net.seen["rows"] = max(net.seen["rows"], x.shape[1])
            net.seen["steps"] += 1
            real_step(net, x, y)

        monkeypatch.setattr(evaluation, "train_attacker_ensemble", ensemble)
        monkeypatch.setattr(AttackerNet, "__init__", init)
        monkeypatch.setattr(AttackerNet, "train_step", step)
        cfg_path = _smoke_overrides(tmp_path, attack=dict(fields, privacy_fields=["cat0_0"]))
        assert main(["attack", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                     "--checkpoint", str(out / "checkpoint.fvfl"),
                     "--out", str(out / "attack")]) == EXIT_OK

        tags = ["fairness/attr", "privacy/cat0_0/attr"]
        assert sorted(tag for tag, _, _ in ensembles) == tags
        assert all(atk == AttackConfig(**fields, privacy_fields=["cat0_0"])
                   for _, atk, _ in ensembles)
        assert sorted(tag for tag, _ in nets) == tags
        rows, seen = {tag: n for tag, _, n in ensembles}, dict(nets)
        for tag in tags:
            n_train = rows[tag] - max(1, round(rows[tag] * 0.1))  # less the holdout
            assert seen[tag] == {"k": 2, "hidden": 7, "lr": 0.02, "rows": 50,
                                 "steps": 2 * math.ceil(n_train / 50)}  # max_epochs 2, none stops
        report = json.loads((out / "attack" / "metrics.json").read_text())
        assert len(report["fairness_f1"]["attr"]["per_attacker"]) == 2

    def test_missing_config_is_validation_error(self, capsys):
        assert main(["train"]) == EXIT_VALIDATION

    def test_invalid_config_value(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"batch_size": 1}), encoding="utf-8")
        rc = main(["train", "--preset", "synthetic-smoke", "--config", str(path),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_VALIDATION

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from fairvfl import cli
        from fairvfl.errors import NumericError

        def boom(cfg, out):
            raise NumericError("non-finite loss in round 7")

        monkeypatch.setattr(cli, "cmd_train", boom)
        rc = main(["train", "--preset", "synthetic-smoke", "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        assert "round 7" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_train_out_that_cannot_be_a_directory(self, tmp_path, capsys, under):
        blocker = tmp_path / "F"
        blocker.write_text("not a directory", encoding="utf-8")
        out = blocker / "x" if under else blocker
        rc = main(["train", "--preset", "synthetic-smoke", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(str(out)) in err
        assert blocker.read_text(encoding="utf-8") == "not a directory"

    def test_attack_out_that_is_a_file_fails_before_any_probe_trains(
            self, tmp_path, capsys, monkeypatch):
        from fairvfl.evaluation import AttackerNet

        cfg_path = _smoke_overrides(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        steps = []
        real_step = AttackerNet.train_step
        monkeypatch.setattr(AttackerNet, "train_step",
                            lambda net, x, y: steps.append(1) or real_step(net, x, y))
        capsys.readouterr()
        blocker = out / "attack"
        blocker.write_text("", encoding="utf-8")
        rc = main(["attack", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--checkpoint", str(out / "checkpoint.fvfl"), "--out", str(blocker)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(str(blocker)) in err
        assert steps == []

    @pytest.mark.parametrize("content", [b"", b"\n\n  \n"], ids=["empty", "blank-lines"])
    def test_audit_of_a_transcript_without_records_fails(self, tmp_path, capsys, content):
        path = tmp_path / "transcript.ndjson"
        path.write_bytes(content)
        rc = main(["audit", "--preset", "synthetic-smoke", "--transcript", str(path)])
        assert rc == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert out.startswith("audit: 0 records, 0 violations") and "no records" in out


class TestTrainEpoch:
    """``runner.train_epoch``: the batch schedule of every training run."""

    def test_rounds_carry_the_exported_transcript_and_drain_it(self, tmp_path):
        cfg = preset("synthetic-smoke").with_overrides(epochs=2)
        ds, pa = runner.make_dataset(cfg)
        fed = runner.build_run_federation(cfg, ds, pa, payload_digests=True)
        lines = []
        for epoch in range(cfg.epochs):
            for result in runner.train_epoch(fed, cfg, ds, epoch):
                assert len(fed.transcript) == 0
                lines += [rec.to_line() + "\n" for rec in result.records]
        runner.cmd_train(cfg, tmp_path / "run")
        assert lines
        assert "".join(lines).encode() == (tmp_path / "run" / "transcript.ndjson").read_bytes()

    def test_non_finite_weight_raises_when_the_epoch_is_exhausted(self):
        cfg = preset("synthetic-smoke")
        ds, pa = runner.make_dataset(cfg)
        fed = runner.build_run_federation(cfg, ds, pa)
        for _ in runner.train_epoch(fed, cfg, ds, 0):
            pass
        rounds = runner.train_epoch(fed, cfg, ds, 1)
        n_rounds = len(runner.iterate_batches(ds, "train", cfg.batch_size, 0))
        for _ in range(n_rounds):
            next(rounds)
        fed.bundle.task_head.opt.params[0] = np.nan  # the last round's step left it
        with pytest.raises(NumericError, match="non-finite weight in task_head after epoch 1"):
            next(rounds)


class TestSweep:
    def test_axis_application(self):
        cfg = preset("synthetic-smoke")
        swept = apply_axis(cfg, "gamma_c", 0.5)
        assert set(swept.gamma.values()) == {0.5}
        swept = apply_axis(cfg, "lambda", 7.0)
        assert set(swept.lam.values()) == {7.0}
        swept = apply_axis(cfg, "lambda:attr", 3.0)
        assert swept.lam["attr"] == 3.0
        swept = apply_axis(cfg, "rho", 0.3)
        assert swept.dataset["rho"] == 0.3
        with pytest.raises(ConfigError):
            apply_axis(cfg, "nope", 1.0)
        with pytest.raises(ConfigError):
            apply_axis(cfg, "gamma_c", -1.0)
        adult = preset("adult-fairvfl")
        with pytest.raises(ConfigError, match="synthetic"):
            apply_axis(adult, "rho", 0.5)

    def test_sweep_runs_and_continues_past_failures(self, tmp_path, monkeypatch):
        import fairvfl.runner as runner_mod

        cfg_path = _smoke_overrides(tmp_path)
        base = preset("synthetic-smoke").to_dict()
        base.update(json.loads(cfg_path.read_text()))
        cfg = ExperimentConfig.from_dict(base)

        real_run = runner_mod.run_train_and_attack

        def flaky(run_cfg, out_dir):
            if set(run_cfg.gamma.values()) == {0.25}:
                raise RuntimeError("synthetic failure for the record")
            return real_run(run_cfg, out_dir)

        monkeypatch.setattr(runner_mod, "run_train_and_attack", flaky)
        rows = cmd_sweep(cfg, "gamma_c", [0.0, 0.25], tmp_path / "sweep")
        assert len(rows) == 2
        assert rows[0]["error"] == ""
        assert "synthetic failure" in rows[1]["error"]
        table = (tmp_path / "sweep" / "sweep.tsv").read_text()
        assert "gamma_c" in table
        assert (tmp_path / "sweep" / "sweep.json").exists()

    def test_sweep_cli_rho_direction(self, tmp_path):
        cfg_path = _smoke_overrides(
            tmp_path, epochs=2,
            attack={"k": 1, "hidden": 16, "lr": 1e-2, "max_epochs": 15,
                    "privacy_fields": []})
        rc = main(["sweep", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--axis", "rho", "--values", "0.0,0.9",
                   "--out", str(tmp_path / "sw")])
        assert rc == EXIT_OK
        rows = json.loads((tmp_path / "sw" / "sweep.json").read_text())
        assert [r["value"] for r in rows] == [0.0, 0.9]
        assert all(not r["error"] for r in rows)
        # attack F1 grows with the bias strength of the generator
        f1 = {r["value"]: float(r["fair_f1/attr"]) for r in rows}
        assert f1[0.9] > f1[0.0] + 0.1

    def test_sweep_parallel_processes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FAIRVFL_THREADS", "2")
        cfg_path = _smoke_overrides(
            tmp_path, attack={"k": 1, "hidden": 8, "max_epochs": 2,
                              "privacy_fields": []})
        rc = main(["sweep", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                   "--axis", "gamma_c", "--values", "0.0,0.5",
                   "--out", str(tmp_path / "psw")])
        assert rc == EXIT_OK
        rows = json.loads((tmp_path / "psw" / "sweep.json").read_text())
        assert [r["value"] for r in rows] == [0.0, 0.5]
        assert all(not r["error"] for r in rows)

    @pytest.mark.parametrize("values", ["0.1,0.10000001", "1,1"])
    def test_values_sharing_a_run_directory_are_validation_error(
            self, tmp_path, monkeypatch, capsys, values):
        """Two values whose run directory names agree (``{value:g}``) would
        write one directory: the sweep fails before any run starts."""
        runs = []
        monkeypatch.setattr(runner, "_guarded_worker", runs.append)
        rc = main(["sweep", "--preset", "synthetic-smoke", "--axis", "gamma_c",
                   "--values", values, "--out", str(tmp_path / "sw")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        first, second = (repr(float(v)) for v in values.split(","))
        assert err.startswith("error:") and first in err and second in err
        assert runs == []
        assert not (tmp_path / "sw").exists()

    def test_no_values_is_validation_error(self, tmp_path, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(runner, "_guarded_worker", runs.append)
        rc = main(["sweep", "--preset", "synthetic-smoke", "--axis", "gamma_c",
                   "--values", ",", "--out", str(tmp_path / "sw")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")
        assert runs == []
        assert not (tmp_path / "sw").exists()

    def test_out_that_is_a_file_is_validation_error(self, tmp_path, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(runner, "_guarded_worker", runs.append)
        blocker = tmp_path / "sw"
        blocker.write_text("", encoding="utf-8")
        rc = main(["sweep", "--preset", "synthetic-smoke", "--axis", "gamma_c",
                   "--values", "0.0,0.5", "--out", str(blocker)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(str(blocker)) in err
        assert runs == []

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
    def test_bad_thread_count_is_validation_error(self, tmp_path, monkeypatch, capsys,
                                                  value):
        import fairvfl.runner as runner_mod

        monkeypatch.setenv("FAIRVFL_THREADS", value)
        runs = []
        monkeypatch.setattr(runner_mod, "_guarded_worker", runs.append)
        rc = main(["sweep", "--preset", "synthetic-smoke", "--axis", "gamma_c",
                   "--values", "0.0,0.5", "--out", str(tmp_path / "sw")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "FAIRVFL_THREADS" in err
        assert runs == []
        assert not (tmp_path / "sw").exists()


class TestPresetRuns:
    def test_synthetic_smoke_preset_runs_fast_and_audits_clean(self, tmp_path, capsys):
        import time

        out = tmp_path / "smoke"
        t0 = time.perf_counter()
        rc = main(["train", "--preset", "synthetic-smoke", "--out", str(out)])
        elapsed = time.perf_counter() - t0
        assert rc == EXIT_OK
        assert elapsed < 60.0
        rc = main(["audit", "--preset", "synthetic-smoke",
                   "--transcript", str(out / "transcript.ndjson"), "--out", str(out)])
        assert rc == EXIT_OK
        assert "0 violations" in capsys.readouterr().out

    def test_rerun_from_saved_config_reproduces_metrics(self, tmp_path):
        cfg_path = _smoke_overrides(tmp_path)
        out1 = tmp_path / "r1"
        assert main(["train", "--preset", "synthetic-smoke", "--config", str(cfg_path),
                     "--seed", "7", "--out", str(out1)]) == EXIT_OK
        saved = ExperimentConfig.from_dict(read_config_object(out1 / "config.json"))
        from fairvfl.runner import cmd_train

        out2 = tmp_path / "r2"
        cmd_train(saved, out2)
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
        rerun_cfg = ExperimentConfig.from_dict(read_config_object(out2 / "config.json"))
        assert rerun_cfg.fingerprint() == saved.fingerprint()

    def test_attack_on_random_checkpoint_reports_near_baseline(self, tmp_path):
        """A never-trained model carries no sensitive signal when the data has
        none to leak (rho = 0): attack F1 lands at the random baseline."""
        from fairvfl.checkpoint import save_checkpoint
        from fairvfl.data import generate_synthetic, partition_vertical, synthetic_partition
        from fairvfl.models import ModelBundle
        from fairvfl.runner import cmd_attack

        cfg = preset("synthetic-smoke").with_overrides(
            dataset={"kind": "synthetic", "n_samples": 1200, "n_platforms": 2,
                     "sensitive_classes": {"attr": 2}, "rho": 0.0, "seed": 3},
            attack={"k": 2, "hidden": 16, "lr": 1e-2, "max_epochs": 10,
                    "privacy_fields": []},
        )
        spec = cfg.dataset_spec()
        ds = generate_synthetic(spec)
        shards, _, _ = partition_vertical(ds, synthetic_partition(spec))
        bundle = ModelBundle([s.schema() for s in shards], cfg.rep_widths(), 2,
                             {"attr": 2}, seed=99)
        ckpt = tmp_path / "random.fvfl"
        save_checkpoint(bundle, ckpt)
        report = cmd_attack(cfg, ckpt)
        assert abs(report.fairness_f1["attr"]["mean"] - 0.5) < 0.08


class TestKeepFreedHeap:
    """``runner.keep_freed_heap``: glibc's ``mallopt`` once per process, and
    nothing where the C library or its ``mallopt`` is missing."""

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        runner.keep_freed_heap.cache_clear()
        yield
        runner.keep_freed_heap.cache_clear()  # the next build applies the real one

    class _Libc:
        def __init__(self, calls):
            self.mallopt = lambda param, value: calls.append((param, value)) or 1

    def test_unloadable_libc_is_a_no_op(self, monkeypatch):
        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(runner.ctypes, "CDLL", no_libc)
        assert runner.keep_freed_heap() is None

    def test_libc_without_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: object())
        assert runner.keep_freed_heap() is None

    def test_applies_once_per_process(self, monkeypatch):
        loads, calls = [], []
        real_cdll = runner.ctypes.CDLL

        def libc(name):  # other libraries (the OpenBLAS) load as before
            if name is not None:
                return real_cdll(name)
            loads.append(name)
            return self._Libc(calls)

        monkeypatch.setattr(runner.ctypes, "CDLL", libc)
        cfg = preset("synthetic-smoke")
        ds, pa = runner.make_dataset(cfg)
        for _ in range(2):  # every build applies it, the first one alone sets it
            runner.build_run_federation(cfg, ds, pa)
        assert loads == [None]
        # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_ARENA_MAX
        assert calls == [(-3, 32 << 20), (-1, 64 << 20), (-8, 1)]
