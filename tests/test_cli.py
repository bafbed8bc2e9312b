import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import typing
import weakref

import numpy as np
import pytest

from causal_sphhn import artifacts, cli, hypergraph, model, synthgen, training
from causal_sphhn.cli import main
from causal_sphhn.errors import ContractViolation
from causal_sphhn.granger import REDUCTIONS, CausalGraph, GrangerConfig
from causal_sphhn.hypergraph import SPLIT_NAMES, Dataset, Hyperedge, load_dataset, save_dataset
from causal_sphhn.metrics import EvalReport
from causal_sphhn.model import ModelConfig
from causal_sphhn.training import GradientCheckReport, TrainConfig, load_checkpoint, save_checkpoint


CONFIGS = [TrainConfig(), ModelConfig(), GrangerConfig(), synthgen.preset("toy")]
FLOAT_FIELDS = [(cfg, key) for cfg in CONFIGS for key, hint in typing.get_type_hints(type(cfg)).items() if hint is float]


@pytest.mark.parametrize("cfg, key", FLOAT_FIELDS, ids=[f"{type(c).__name__}.{k}" for c, k in FLOAT_FIELDS])
def test_nan_config_field_is_rejected(cfg, key):
    with pytest.raises(ContractViolation):
        dataclasses.replace(cfg, **{key: math.nan})


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def relabelled(ds, name):
    """ds with every node id replaced by name[id], in the same node order."""
    return Dataset(
        [name[i] for i in ds.node_ids], ds.features, ds.classes, ds.horizon,
        [Hyperedge(e.edge_id, tuple(name[m] for m in e.members), e.context_type) for e in ds.hyperedges],
        {name[k]: v for k, v in ds.labels.items()},
        {k: [name[i] for i in v] for k, v in ds.splits.items()},
    )


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """One toy pipeline shared by the read-only CLI tests, each command writing its own directory."""
    run = str(tmp_path_factory.mktemp("toy") / "run")
    dataset = f"{run}/synth/dataset.json"
    assert main(["synth", "--preset", "toy", "--seed", "7", "--out", f"{run}/synth"]) == 0
    assert main(["granger", "--dataset", dataset, "--bonferroni", "--out", f"{run}/granger"]) == 0
    assert (
        main(
            ["train", "--dataset", dataset, "--graph", f"{run}/granger/causal.json",
             "--seed", "7", "--out", f"{run}/train"]
        )
        == 0
    )
    assert (
        main(
            ["eval", "--checkpoint", f"{run}/train/checkpoint.json", "--dataset", dataset,
             "--truth", f"{run}/synth/truth.json", "--seed", "7", "--out", f"{run}/eval"]
        )
        == 0
    )
    return run


class TestSynth:
    def test_outputs_and_manifest(self, toy_run):
        for name in ("dataset.json", "dataset.npy", "truth.json", "manifest.json"):
            assert os.path.exists(os.path.join(toy_run, "synth", name))
        manifest = json.load(open(os.path.join(toy_run, "synth", "manifest.json")))
        assert manifest["command"] == "synth"
        assert "versions" in manifest and "wallclock_ms" in manifest
        for command in ("granger", "train", "eval"):
            assert json.load(open(os.path.join(toy_run, command, "manifest.json")))["command"] == command

    def test_deterministic_outputs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--preset", "toy", "--seed", "3", "--out", a]) == 0
        assert main(["synth", "--preset", "toy", "--seed", "3", "--out", b]) == 0
        assert sha(f"{a}/dataset.json") == sha(f"{b}/dataset.json")
        assert sha(f"{a}/truth.json") == sha(f"{b}/truth.json")

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["synth", "--preset", "toy"])
        assert info.value.code == 2

    def test_custom_config(self, tmp_path):
        cfg = {
            "n_nodes": 20, "n_hyperedges": 15, "mean_edge_size": 3.0,
            "feature_dim": 6, "timesteps": 40, "n_classes": 2,
            "planted_edges": [[0, 5, 0.7]], "n_communities": 4,
        }
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        out = str(tmp_path / "run")
        assert main(["synth", "--config", str(cfg_path), "--seed", "1", "--out", out]) == 0
        truth = json.load(open(f"{out}/truth.json"))
        assert truth["true_edges"] == [{"src": "n0000", "dst": "n0005", "coef": 0.7}]

    def test_config_seed_is_refused_and_seed_sets_the_block(self, tmp_path, capsys):
        # A seed in the file would override --seed while the manifest records --seed.
        cfg = {
            "n_nodes": 20, "n_hyperedges": 15, "mean_edge_size": 3.0,
            "feature_dim": 6, "timesteps": 40, "n_classes": 2, "planted_edges": [],
        }
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({**cfg, "seed": 3}))
        out = tmp_path / "refused"
        assert main(["synth", "--config", str(cfg_path), "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(cfg_path) in err and "seed is set by --seed, not by the config" in err
        assert not out.exists()
        cfg_path.write_text(json.dumps(cfg))
        blocks = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            assert main(["synth", "--config", str(cfg_path), "--seed", seed, "--out", str(out)]) == 0
            blocks.append(sha(out / "dataset.npy"))
            assert json.load(open(out / "manifest.json"))["seed"] == int(seed)
        assert blocks[0] != blocks[1]

    @pytest.mark.parametrize(
        "change, key", [({"n_layers": 3}, "n_layers"), ({"n_classes": None}, "n_classes")]
    )
    def test_config_unknown_or_missing_key_is_input_error(self, tmp_path, capsys, change, key):
        cfg = {
            "n_nodes": 20, "n_hyperedges": 15, "mean_edge_size": 3.0,
            "feature_dim": 6, "timesteps": 40, "n_classes": 2, "planted_edges": [],
        }
        cfg.update(change)
        cfg = {k: v for k, v in cfg.items() if v is not None}
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("change", [{"n_nodes": "40"}, {"burn_in": 5.5}], ids=["str_int", "float_int"])
    def test_config_value_of_the_wrong_type_is_input_error(self, tmp_path, capsys, change):
        cfg = {
            "n_nodes": 20, "n_hyperedges": 15, "mean_edge_size": 3.0,
            "feature_dim": 6, "timesteps": 40, "n_classes": 2, "planted_edges": [], **change,
        }
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert f"{next(iter(change))} must be int" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"planted_edges": [[0.9, 5, 0.7]]}, "planted_edges[0][0] must be int, got 0.9"),
            ({"planted_edges": [["0", 5, 0.7]]}, "planted_edges[0][0] must be int"),
            ({"planted_edges": [[0, 5]]}, "planted_edges[0] must have 3 entries"),
            ({"split_fracs": ["0.5", "0.25", "0.25"]}, "split_fracs[0] must be float"),
            ({"split_fracs": [0.5, 0.5]}, "split_fracs must have 3 entries"),
        ],
        ids=["float_node", "str_node", "short_edge", "str_fracs", "two_fracs"],
    )
    def test_config_tuple_field_of_the_wrong_type_is_input_error(self, tmp_path, capsys, change, message):
        cfg = {
            "n_nodes": 20, "n_hyperedges": 15, "mean_edge_size": 3.0,
            "feature_dim": 6, "timesteps": 40, "n_classes": 2, "planted_edges": [], **change,
        }
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(cfg_path) in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_config_horizon_below_one_is_input_error(self, tmp_path, capsys, horizon):
        cfg = {
            "n_nodes": 20, "n_hyperedges": 15, "mean_edge_size": 3.0,
            "feature_dim": 6, "timesteps": 40, "n_classes": 2, "planted_edges": [], "horizon": horizon,
        }
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"{cfg_path}: horizon must be >= 1, got {horizon}" in capsys.readouterr().err
        assert not out.exists()


def test_choices_come_from_the_modules_that_own_them():
    subs = cli.build_parser()._subparsers._group_actions[0].choices

    def choices(command, dest):
        return tuple(next(a for a in subs[command]._actions if a.dest == dest).choices)

    assert choices("synth", "preset") == tuple(synthgen.PRESETS)
    assert choices("eval", "split") == (*SPLIT_NAMES, "all")


class TestGranger:
    def test_defaults_come_from_granger_config(self):
        sub = cli.build_parser()._subparsers._group_actions[0].choices["granger"]
        args = sub.parse_args(["--dataset", "d.json", "--out", "o"])
        cfg = GrangerConfig()
        assert (args.lag, args.alpha, args.reduction, args.bonferroni) == (
            cfg.lag, cfg.alpha, cfg.reduction, cfg.bonferroni
        )
        assert tuple(next(a for a in sub._actions if a.dest == "reduction").choices) == REDUCTIONS

    def test_recovers_planted_edges(self, toy_run):
        truth = json.load(open(os.path.join(toy_run, "synth", "truth.json")))
        graph = json.load(open(os.path.join(toy_run, "granger", "causal.json")))
        found = {(e["src"], e["dst"]) for e in graph["edges"]}
        planted = {(e["src"], e["dst"]) for e in truth["true_edges"]}
        assert len(found & planted) >= 0.8 * len(planted)

    def test_tiny_alpha_yields_empty_graph(self, tmp_path):
        cfg = {
            "n_nodes": 8, "n_hyperedges": 6, "mean_edge_size": 3.0,
            "feature_dim": 4, "timesteps": 60, "n_classes": 2,
            "planted_edges": [], "n_communities": 2, "anchor_scale": 0.0,
        }
        cfg_path = tmp_path / "null.json"
        cfg_path.write_text(json.dumps(cfg))
        out = str(tmp_path / "run")
        assert main(["synth", "--config", str(cfg_path), "--seed", "2", "--out", out]) == 0
        assert main(["granger", "--dataset", f"{out}/dataset.json", "--alpha", "1e-9", "--out", out]) == 0
        graph = json.load(open(f"{out}/causal.json"))
        assert graph["edges"] == []

    def test_empty_train_split_is_input_error(self, tmp_path, capsys):
        # The reduction is fit on the train split alone: an empty one must not fall back to every node.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(synthgen.PRESETS["toy"][2], split_fracs=[0.0, 0.5, 0.5])))
        out = str(tmp_path / "run")
        assert main(["synth", "--config", str(cfg_path), "--out", out]) == 0
        assert main(["granger", "--dataset", f"{out}/dataset.json", "--out", f"{out}/granger"]) == 1
        assert "no node of the fit subset is in the dataset" in capsys.readouterr().err

    def test_zero_lag_is_usage_error(self, toy_run):
        with pytest.raises(SystemExit) as info:
            main(["granger", "--dataset", f"{toy_run}/synth/dataset.json", "--lag", "0", "--out", "/tmp/x"])
        assert info.value.code == 2

    def test_series_shorter_than_min_length_is_input_error(self, toy_run, tmp_path, capsys):
        # lag 1000 needs 4004 timesteps; SeriesTooShort is a ContractViolation.
        argv = ["granger", "--dataset", f"{toy_run}/synth/dataset.json", "--lag", "1000", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "series length" in capsys.readouterr().err

    def test_missing_dataset_is_input_error(self, tmp_path):
        assert main(["granger", "--dataset", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("error", [KeyError, OSError])
    def test_error_inside_command_propagates(self, tmp_path, toy_run, monkeypatch, error):
        # Only the parse and write sites turn these into input errors;
        # raised anywhere else they are bugs.
        def broken(*args, **kwargs):
            raise error("bug")

        monkeypatch.setattr("causal_sphhn.granger.infer_causal_graph", broken)
        with pytest.raises(error):
            main(["granger", "--dataset", f"{toy_run}/synth/dataset.json", "--out", str(tmp_path)])


class TestTrain:
    def test_history_within_epoch_budget(self, toy_run):
        lines = open(os.path.join(toy_run, "train", "history.csv")).read().strip().split("\n")
        assert lines[0].startswith("epoch,train_loss,val_loss,pred,entropy,causal,wallclock_ms")
        assert len(lines) - 1 <= 100

    def test_no_causal_equals_empty_graph_training(self, tmp_path, toy_run):
        ds = f"{toy_run}/synth/dataset.json"
        empty = tmp_path / "empty_graph.json"
        empty.write_text(json.dumps({"alpha": 0.01, "lag": 2, "edges": []}))
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train", "--dataset", ds, "--no-causal", "--seed", "5", "--out", out_a]) == 0
        assert main(["train", "--dataset", ds, "--graph", str(empty), "--seed", "5", "--out", out_b]) == 0
        ca = json.load(open(f"{out_a}/checkpoint.json"))
        cb = json.load(open(f"{out_b}/checkpoint.json"))
        assert ca["params"] == cb["params"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--graph", "{run}/granger/causal.json", "--no-causal"], "not allowed with argument"),
            (["--graph", "{tmp}/missing.json", "--no-causal"], "not allowed with argument"),
            ([], "one of the arguments --graph --no-causal is required"),
        ],
        ids=["graph_and_no_causal", "missing_graph_and_no_causal", "neither"],
    )
    def test_exactly_one_of_graph_and_no_causal_is_given(self, tmp_path, toy_run, capsys, flags, message):
        # --no-causal trains without a graph, so a --graph beside it would be read for nothing.
        out = tmp_path / "t"
        with pytest.raises(SystemExit) as info:
            main(["train", "--dataset", f"{toy_run}/synth/dataset.json",
                  *[f.format(run=toy_run, tmp=tmp_path) for f in flags],
                  "--out", str(out)])
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_horizon_below_one_is_input_error(self, tmp_path, toy_run, capsys):
        doc = json.load(open(f"{toy_run}/synth/dataset.json"))
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(dict(doc, horizon=-3)))
        shutil.copy(f"{toy_run}/synth/dataset.npy", tmp_path)
        out = tmp_path / "t"
        assert main(["train", "--dataset", str(path), "--no-causal", "--out", str(out)]) == 1
        assert f"{path}: horizon must be >= 1, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_split_listing_a_node_twice_is_input_error(self, tmp_path, toy_run, capsys):
        # A repeated id would train that node twice: compile_structure keeps every listed row.
        doc = json.load(open(f"{toy_run}/synth/dataset.json"))
        train_ids = doc["splits"]["train"]
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(dict(doc, splits=dict(doc["splits"], train=[train_ids[0], *train_ids]))))
        shutil.copy(f"{toy_run}/synth/dataset.npy", tmp_path)
        out = tmp_path / "t"
        assert main(["train", "--dataset", str(path), "--no-causal", "--out", str(out)]) == 1
        assert f"{path}: split 'train' lists node {train_ids[0]} twice" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_reproducible_checkpoint(self, tmp_path, toy_run):
        ds, graph = f"{toy_run}/synth/dataset.json", f"{toy_run}/granger/causal.json"
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["train", "--dataset", ds, "--graph", graph, "--seed", "11", "--out", out]) == 0
        assert sha(f"{out_a}/checkpoint.json") == sha(f"{out_b}/checkpoint.json")

    def test_divergence_exit_code(self, tmp_path, toy_run):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"lr": 1e155, "max_epochs": 5}))
        code = main(
            ["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal",
             "--config", str(cfg), "--out", str(tmp_path / "d")]
        )
        assert code == 3

    def test_nonfinite_projection_exit_code(self, tmp_path, toy_run, monkeypatch, capsys):
        # Finite weights whose projection overflows are a divergence, not an input error.
        init = training.init_params

        def huge(*args):
            params = init(*args)
            params.proj_w.data = np.full_like(params.proj_w.data, 1e308)
            return params

        monkeypatch.setattr(training, "init_params", huge)
        out = tmp_path / "d"
        code = main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal", "--out", str(out)])
        assert code == 3
        assert "training diverged: projection of node" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_config_value_is_input_error(self, tmp_path, toy_run, capsys):
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps({"lr": math.nan, "max_epochs": 1}))  # json writes a bare NaN
        out = tmp_path / "n"
        code = main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "lr must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_ablation_flags_accepted(self, tmp_path, toy_run):
        cfg = tmp_path / "fast.json"
        cfg.write_text(json.dumps({"max_epochs": 2, "dropout": 0.1}))
        out = str(tmp_path / "abl")
        code = main(
            ["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal", "--no-entropy",
             "--euclidean", "--pairwise", "--config", str(cfg), "--out", out]
        )
        assert code == 0
        ckpt = json.load(open(f"{out}/checkpoint.json"))
        assert ckpt["model_config"]["euclidean"] and ckpt["model_config"]["pairwise"]
        assert ckpt["train_config"]["lambda1"] == 0.0
        assert ckpt["model_config"]["dropout"] == 0.1 and "dropout" not in ckpt["train_config"]

    def test_config_keys_set_both_configs(self, tmp_path, toy_run):
        model = {"embed_dim": 8, "layers": 1, "dropout": 0.1}
        train = {"lambda1": 0.2, "lambda2": 0.3, "lr": 0.01, "max_epochs": 1, "patience": 2}
        cfg = tmp_path / "all.json"
        cfg.write_text(json.dumps({**model, **train}))
        out = str(tmp_path / "all")
        assert main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal",
                     "--config", str(cfg), "--out", out]) == 0
        ckpt = json.load(open(f"{out}/checkpoint.json"))
        assert model.items() <= ckpt["model_config"].items()
        assert train.items() <= ckpt["train_config"].items()

    def test_unknown_config_key_is_input_error(self, tmp_path, toy_run, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"learning_rate": 0.5}))
        code = main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal",
                     "--config", str(cfg), "--out", str(tmp_path / "t")])
        assert code == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_kappa_init_is_not_a_config_key(self, tmp_path, toy_run, capsys):
        # kappa's initial value is model.KAPPA_INIT, not a setting.
        cfg = tmp_path / "kappa.json"
        cfg.write_text(json.dumps({"kappa_init": 5.0}))
        out = tmp_path / "t"
        code = main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "unknown config key(s) kappa_init" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_size_is_not_a_config_key(self, tmp_path, toy_run, capsys):
        # Each epoch is one full-graph step, so there is no batch to size.
        cfg = tmp_path / "batch.json"
        cfg.write_text(json.dumps({"batch_size": 16}))
        out = tmp_path / "t"
        code = main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "unknown config key(s) batch_size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"lr": "0.001"}, "lr must be float"),
            ({"patience": 2.5}, "patience must be int"),
            ({"embed_dim": 8.0}, "embed_dim must be int"),
            ({"max_epochs": True}, "max_epochs must be int"),
        ],
        ids=["str_float", "float_int", "float_model_int", "bool_int"],
    )
    def test_config_value_of_the_wrong_type_is_input_error(self, tmp_path, toy_run, capsys, change, message):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(change))
        out = tmp_path / "t"
        code = main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_float_config_field_takes_an_int(self, tmp_path, toy_run):
        cfg = tmp_path / "int.json"
        cfg.write_text(json.dumps({"dropout": 0, "lambda2": 1, "max_epochs": 1}))
        out = str(tmp_path / "t")
        assert main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal",
                     "--config", str(cfg), "--out", out]) == 0
        ckpt = json.load(open(f"{out}/checkpoint.json"))
        assert ckpt["model_config"]["dropout"] == 0.0 and isinstance(ckpt["model_config"]["dropout"], float)
        assert ckpt["train_config"]["lambda2"] == 1.0 and isinstance(ckpt["train_config"]["lambda2"], float)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"lag": True}, "lag must be int, got True"),
            ({"lag": 2.7}, "lag must be int, got 2.7"),
            ({"alpha": "0.01"}, "alpha must be float"),
            ({"edge_f": "abc"}, "edges[0].f must be float, got 'abc'"),
            ({"edge_src": 3}, "edges[0].src must be str"),
            ({"edges": {}}, "edges must be a list, got {}"),
            ({"alpha": 5.0}, "alpha must be in (0, 1), got 5.0"),
            ({"lag": -3}, "lag must be >= 1, got -3"),
            ({"edge_p": math.nan}, "has p nan, not in [0, alpha]"),
            ({"edge_p": -0.5}, "has p -0.5, not in [0, alpha]"),
            ({"edge_f": math.inf}, "has F inf, not finite and >= 0"),
        ],
        ids=["bool_lag", "float_lag", "str_alpha", "str_f", "int_src", "object_edges", "big_alpha", "negative_lag",
             "nan_p", "negative_p", "infinite_f"],
    )
    def test_graph_field_of_the_wrong_type_is_input_error(self, tmp_path, toy_run, capsys, change, message):
        doc = json.load(open(f"{toy_run}/granger/causal.json"))
        assert doc["edges"]
        for key, value in change.items():
            if key.startswith("edge_"):
                doc["edges"][0][key[5:]] = value
            else:
                doc[key] = value
        graph = tmp_path / "causal.json"
        graph.write_text(json.dumps(doc))
        out = tmp_path / "t"
        code = main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--graph", str(graph),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(graph) in err and message in err
        assert not out.exists()

    def test_graph_naming_an_unknown_node_is_input_error(self, tmp_path, toy_run, capsys):
        # A graph inferred on another dataset: its edges are not applied in part.
        graph = CausalGraph.load(f"{toy_run}/granger/causal.json")
        edges = [*graph.edges, (graph.edges[0].src, "n9999", 2.0, 1e-3)]
        path = str(tmp_path / "causal.json")
        CausalGraph(graph.alpha, graph.lag, edges).save(path)
        out = tmp_path / "t"
        code = main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--graph", path, "--out", str(out)])
        assert code == 1
        assert f"causal edge {graph.edges[0].src} -> n9999 references unknown node n9999" in capsys.readouterr().err
        assert not out.exists()

    def test_graph_without_edges_is_input_error(self, tmp_path, toy_run):
        graph = tmp_path / "causal.json"
        graph.write_text(json.dumps({"alpha": 0.01, "lag": 2}))
        code = main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--graph", str(graph),
                     "--out", str(tmp_path / "t")])
        assert code == 1


class TestEval:
    def test_report_schema(self, toy_run):
        report = json.load(open(os.path.join(toy_run, "eval", "report.json")))
        for key in ("accuracy", "macro_f1", "auc", "ece", "mean_entropy",
                    "mean_vmf_entropy", "p_at_k", "per_class_f1", "rank_corr", "config"):
            assert key in report
        assert list(report) == [f.name for f in dataclasses.fields(EvalReport)]
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["p_at_k"] is not None
        # The eval settings alone: the input digests are the manifest's.
        assert report["config"] == {"bins": 10, "k": 5, "split": "test", "dropout_rate": 0.0}
        manifest = json.load(open(os.path.join(toy_run, "eval", "manifest.json")))
        assert manifest["command"] == "eval"
        assert manifest["config_digest"] == artifacts.doc_digest(report["config"])
        assert manifest["inputs"]["dataset"] == artifacts.file_digest(f"{toy_run}/synth/dataset.json")
        assert manifest["inputs"]["checkpoint"] == artifacts.file_digest(f"{toy_run}/train/checkpoint.json")

    @staticmethod
    def eval_with_graph(tmp_path, toy_run, edges, dataset=None):
        """Eval the toy checkpoint's parameters on ``dataset`` (the toy one by
        default) against the causal graph of ``edges`` (indices into the node
        list), with the first edge planted."""
        dataset = dataset or f"{toy_run}/synth/dataset.json"
        ids = [n.node_id for n in load_dataset(dataset).nodes]
        graph = CausalGraph(0.01, 2, [(ids[s], ids[d], f, 1e-3) for s, d, f in edges])
        params, train_cfg, _ = load_checkpoint(f"{toy_run}/train/checkpoint.json")
        ckpt, truth = str(tmp_path / "checkpoint.json"), str(tmp_path / "truth.json")
        save_checkpoint(ckpt, params, train_cfg, graph)
        synthgen.save_truth([synthgen.PlantedEdge(graph.edges[0].src, graph.edges[0].dst, 0.5)], truth)
        out = str(tmp_path / "r")
        assert main(["eval", "--checkpoint", ckpt, "--dataset", dataset,
                     "--truth", truth, "--k", "1", "--out", out]) == 0
        return json.load(open(f"{out}/report.json"))

    def test_empty_split_names_the_split_and_the_dataset(self, tmp_path, toy_run, capsys):
        ds = load_dataset(f"{toy_run}/synth/dataset.json")
        splits = dict(ds.splits, train=ds.splits["train"] + ds.splits["test"], test=[])
        dataset = str(tmp_path / "dataset.json")
        save_dataset(dataclasses.replace(ds, splits=splits), dataset)
        out = tmp_path / "r"
        assert main(["eval", "--checkpoint", f"{toy_run}/train/checkpoint.json", "--dataset", dataset,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {dataset}: the test split is empty\n"
        assert not out.exists()

    def test_nonfinite_projection_is_named(self, tmp_path, toy_run, capsys):
        # A checkpoint's weights are finite, but at 1e308 the projection overflows: eval names the stage.
        params, train_cfg, graph = load_checkpoint(f"{toy_run}/train/checkpoint.json")
        params.proj_w.data = np.full_like(params.proj_w.data, 1e308)
        ckpt = str(tmp_path / "checkpoint.json")
        save_checkpoint(ckpt, params, train_cfg, graph)
        out = tmp_path / "r"
        assert main(["eval", "--checkpoint", ckpt, "--dataset", f"{toy_run}/synth/dataset.json", "--out", str(out)]) == 1
        assert re.search(r"^error: projection of node \S+ is nonfinite$", capsys.readouterr().err, re.M)
        assert not out.exists()

    def test_causal_metrics_score_edges_by_learned_gamma(self, tmp_path, toy_run):
        # A single-parent child puts gamma 1 on its parent whatever the F
        # statistic, so gamma ranks the three edges 3, 2, 1 and F ranks
        # them 1, 3, 2.
        report = self.eval_with_graph(tmp_path, toy_run, [(0, 1, 1.0), (2, 3, 5.0), (4, 3, 3.0)])
        assert report["rank_corr"] == pytest.approx(-0.5, abs=1e-12)
        assert report["p_at_k"] == 1.0

    def test_one_edge_graph_has_no_rank_correlation(self, tmp_path, toy_run):
        report = self.eval_with_graph(tmp_path, toy_run, [(0, 1, 1.0)])
        assert report["rank_corr"] is None
        assert report["p_at_k"] == 1.0

    def test_tied_gamma_ranks_by_f_not_by_node_id(self, tmp_path, toy_run):
        # Four single-parent children, so gamma is exactly 1 on every edge.
        # The planted edge has the second-highest F, so P@1 is 0; reversing
        # the node ids must not change that, as a tie broken by id would.
        ds = load_dataset(f"{toy_run}/synth/dataset.json")
        ids = [n.node_id for n in ds.nodes]
        edges = [(0, 1, 3.0), (2, 3, 5.0), (4, 5, 2.0), (6, 7, 1.0)]
        for tag, name in [("same", dict(zip(ids, ids))), ("reversed", dict(zip(ids, reversed(ids))))]:
            path = str(tmp_path / tag / "dataset.json")
            save_dataset(relabelled(ds, name), path)
            report = self.eval_with_graph(tmp_path / tag, toy_run, edges, dataset=path)
            assert report["p_at_k"] == 0.0, tag

    def test_metrics_do_not_depend_on_the_node_order(self, tmp_path, toy_run):
        # Ids v0, v1, ..., v39 listed in numeric order are out of sorted-id
        # order ("v10" sorts before "v2"); the same dataset listed in sorted-id
        # order must score the same on the same model and causal graph.
        ds = load_dataset(f"{toy_run}/synth/dataset.json")
        name = {n.node_id: f"v{k}" for k, n in enumerate(ds.nodes)}
        params, train_cfg, graph = load_checkpoint(f"{toy_run}/train/checkpoint.json")
        assert len(graph.edges)
        edges = [(name[e.src], name[e.dst], e.f_statistic, e.p_value) for e in graph.edges]
        ckpt = str(tmp_path / "checkpoint.json")
        save_checkpoint(ckpt, params, train_cfg, CausalGraph(graph.alpha, graph.lag, edges))
        numeric = relabelled(ds, name)
        order = sorted(range(len(numeric.node_ids)), key=numeric.node_ids.__getitem__)
        in_id_order = dataclasses.replace(
            numeric, node_ids=[numeric.node_ids[k] for k in order], features=numeric.features[order])
        assert [n.node_id for n in in_id_order.nodes] != [n.node_id for n in numeric.nodes]
        reports = {}
        for tag, dataset in (("numeric", numeric), ("sorted", in_id_order)):
            path = str(tmp_path / tag / "dataset.json")
            save_dataset(dataset, path)
            for split in ("test", "all"):
                out = str(tmp_path / tag / split)
                assert main(["eval", "--checkpoint", ckpt, "--dataset", path, "--split", split, "--out", out]) == 0
                reports[tag, split] = json.load(open(f"{out}/report.json"))
        for split in ("test", "all"):
            a, b = reports["numeric", split], reports["sorted", split]
            assert a["accuracy"] == b["accuracy"] and a["per_class_f1"] == b["per_class_f1"], split
            assert a["ece"] == pytest.approx(b["ece"], abs=1e-12), split
            assert a["auc"] == pytest.approx(b["auc"], abs=1e-12), split

    def test_feature_block_is_dropped_before_the_forward(self, tmp_path, toy_run, monkeypatch):
        # The structure holds all eval reads of the dataset, so the (N, T, d)
        # block is not kept through the forward, nor through the dropout mask:
        # only one feature block is ever alive.
        load, dropout, run_model = hypergraph.load_dataset, hypergraph.feature_dropout, model.run_model
        for rate in ("0", "0.2"):
            blocks, alive = [], []

            def loading(path):
                ds = load(path)
                blocks.append(weakref.ref(ds.features))
                return ds

            def observed(step):
                return lambda *a, **k: (alive.append((step, blocks[0]() is not None)), step(*a, **k))[1]

            monkeypatch.setattr(hypergraph, "load_dataset", loading)
            monkeypatch.setattr(hypergraph, "feature_dropout", observed(dropout))
            monkeypatch.setattr(model, "run_model", observed(run_model))
            assert main(["eval", "--checkpoint", f"{toy_run}/train/checkpoint.json",
                         "--dataset", f"{toy_run}/synth/dataset.json",
                         "--dropout-rate", rate, "--out", str(tmp_path / rate)]) == 0
            steps = [(dropout, False)] if rate != "0" else []
            assert alive == steps + [(run_model, False)], rate

    def test_negative_dropout_rate_is_input_error(self, tmp_path, toy_run, capsys):
        out = tmp_path / "r"
        code = main(["eval", "--checkpoint", f"{toy_run}/train/checkpoint.json",
                     "--dataset", f"{toy_run}/synth/dataset.json", "--dropout-rate", "-0.5", "--out", str(out)])
        assert code == 1
        assert "dropout rate" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_dropout_rate_zero_equals_no_flag(self, tmp_path, toy_run):
        args = ["eval", "--checkpoint", f"{toy_run}/train/checkpoint.json",
                "--dataset", f"{toy_run}/synth/dataset.json", "--truth", f"{toy_run}/synth/truth.json",
                "--seed", "7"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b, "--dropout-rate", "0.0"]) == 0
        assert sha(f"{out_a}/report.json") == sha(f"{out_b}/report.json")

    def test_eval_deterministic_with_dropout(self, tmp_path, toy_run):
        args = ["eval", "--checkpoint", f"{toy_run}/train/checkpoint.json",
                "--dataset", f"{toy_run}/synth/dataset.json", "--seed", "9",
                "--dropout-rate", "0.4"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0
        assert sha(f"{out_a}/report.json") == sha(f"{out_b}/report.json")

    def test_dimension_mismatch_is_input_error(self, tmp_path, toy_run):
        other = str(tmp_path / "other")
        cfg = {
            "n_nodes": 10, "n_hyperedges": 8, "mean_edge_size": 3.0,
            "feature_dim": 5, "timesteps": 30, "n_classes": 2,
            "planted_edges": [], "n_communities": 2,
        }
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(cfg_path), "--seed", "1", "--out", other]) == 0
        code = main(
            ["eval", "--checkpoint", f"{toy_run}/train/checkpoint.json",
             "--dataset", f"{other}/dataset.json", "--out", str(tmp_path / "r")]
        )
        assert code == 1

    def test_old_checkpoint_version_is_input_error(self, tmp_path, toy_run, capsys):
        doc = json.load(open(f"{toy_run}/train/checkpoint.json"))
        v1 = dict(doc, format_version=1, train_config=dict(doc["train_config"], dropout=0.2, kappa_init=20.0))
        v2 = dict(doc, format_version=2, model_config=dict(doc["model_config"], attn_temp_init=20.0, gamma_temp_init=1.0))
        v3 = dict(doc, format_version=3, config_digest="0" * 64, adam={"beta1": 0.9, "beta2": 0.999, "eps": 1e-8})
        v4 = dict(doc, format_version=4, model_config=dict(doc["model_config"], kappa_init=20.0),
                  arch={"in_dim": 16, "classes": 4, "edge_types": ["activity", "class"]})
        # Version 5 trained in minibatches, and its forward had no logit scale.
        v5 = dict(doc, format_version=5, train_config=dict(doc["train_config"], batch_size=128))
        for old in (v1, v2, v3, v4, v5):
            path = tmp_path / f"v{old['format_version']}.json"
            path.write_text(json.dumps(old))
            code = main(
                ["eval", "--checkpoint", str(path), "--dataset", f"{toy_run}/synth/dataset.json",
                 "--out", str(tmp_path / "r")]
            )
            assert code == 1
            assert f"{path}: unsupported checkpoint version {old['format_version']}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("model_config", "euclidean", "no", "model_config.euclidean must be bool, got 'no'"),
            ("model_config", "layers", 2.0, "model_config.layers must be int, got 2.0"),
            ("train_config", "lr", "0.001", "train_config.lr must be float"),
            ("params", "edge_w:class", "class", "params.edge_w:class must be list | float, got 'class'"),
            ("causal_graph", "lag", 2.5, "causal_graph: lag must be int, got 2.5"),
            ("causal_graph", "bogus", 1, "causal_graph: unknown field(s) bogus"),
            ("train_config", "patience", 0, "patience must be >= 1"),
            ("train_config", "lr", -1.0, "lr must be >= 0"),
            ("model_config", "kappa_init", -5.0, "unknown field(s) model_config.kappa_init"),
            ("params", "proj_w", [[1.0]], "params.proj_w has shape (1, 1)"),
            ("params", "proj_w", [["a"]], "params.proj_w must be an array of numbers"),
            ("params", "proj_w", [[]], "params.proj_w has shape (1, 0), whose last axis is empty"),
            ("params", "kappa_b", math.nan, "params.kappa_b must be finite"),
            ("params", "head_b", [], "params.head_b has shape (0,), whose last axis is empty"),
            ("params", "edge_w:class", [[1.0]], "params.edge_w:class has shape (1, 1), expected (64, 64)"),
            ("params", "bogus", [1.0, 2.0], "unknown field(s) params.bogus"),
        ],
        ids=["str_bool", "float_int", "str_float", "str_tuple", "graph_float_lag", "graph_unknown_key", "zero_patience",
             "negative_lr", "negative_kappa", "param_shape", "param_str", "negative_in_dim", "nan_param", "empty_head_b",
             "edge_w_shape", "unknown_param"],
    )
    def test_checkpoint_field_of_the_wrong_type_is_input_error(
        self, tmp_path, toy_run, capsys, section, key, value, message
    ):
        doc = json.load(open(f"{toy_run}/train/checkpoint.json"))
        doc[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r"
        code = main(["eval", "--checkpoint", str(path), "--dataset", f"{toy_run}/synth/dataset.json", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [({"coef": "0.8"}, "true_edges[0].coef must be float"), ({"dst": 5}, "true_edges[0].dst must be str")],
        ids=["str_coef", "int_dst"],
    )
    def test_truth_field_of_the_wrong_type_is_input_error(self, tmp_path, toy_run, capsys, change, message):
        doc = json.load(open(f"{toy_run}/synth/truth.json"))
        doc["true_edges"][0].update(change)
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", f"{toy_run}/train/checkpoint.json",
                     "--dataset", f"{toy_run}/synth/dataset.json", "--truth", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and message in err

    def test_truth_is_read_without_a_causal_graph(self, tmp_path, toy_run, capsys):
        # A model without a graph scores no edge, but a --truth it is given must still be a truth file.
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"max_epochs": 2}))
        ckpt = str(tmp_path / "t")
        assert main(["train", "--dataset", f"{toy_run}/synth/dataset.json", "--no-causal", "--config", str(cfg),
                     "--out", ckpt]) == 0
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"true_edges": "garbage"}))
        out = tmp_path / "r"
        code = main(["eval", "--checkpoint", f"{ckpt}/checkpoint.json", "--dataset", f"{toy_run}/synth/dataset.json",
                     "--truth", str(truth), "--out", str(out)])
        assert code == 1
        assert f"{truth}: true_edges must be a list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt", ["unknown_train_key", "missing_arch"])
    def test_malformed_checkpoint_is_input_error(self, tmp_path, toy_run, corrupt):
        doc = json.load(open(f"{toy_run}/train/checkpoint.json"))
        if corrupt == "unknown_train_key":
            doc["train_config"]["momentum"] = 0.9
        else:  # the input dim is read off proj_w
            del doc["params"]["proj_w"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(
            ["eval", "--checkpoint", str(path), "--dataset", f"{toy_run}/synth/dataset.json",
             "--out", str(tmp_path / "r")]
        )
        assert code == 1


# Every flag that names an input file, in a command that is valid on the
# toy run except for that file.
FILE_FLAGS = {
    "synth-config": ["synth", "--config", "{bad}"],
    "granger-dataset": ["granger", "--dataset", "{bad}"],
    "train-dataset": ["train", "--dataset", "{bad}", "--graph", "{run}/granger/causal.json"],
    "train-graph": ["train", "--dataset", "{run}/synth/dataset.json", "--graph", "{bad}"],
    "train-config": ["train", "--dataset", "{run}/synth/dataset.json", "--no-causal", "--config", "{bad}"],
    "eval-checkpoint": ["eval", "--checkpoint", "{bad}", "--dataset", "{run}/synth/dataset.json"],
    "eval-dataset": ["eval", "--checkpoint", "{run}/train/checkpoint.json", "--dataset", "{bad}"],
    "eval-truth": ["eval", "--checkpoint", "{run}/train/checkpoint.json", "--dataset", "{run}/synth/dataset.json",
                   "--truth", "{bad}"],
}
BAD_FILES = {
    "missing": None,
    "invalid_json": '{"alpha": 0.01,',
    "not_an_object": "[1, 2]",
    "missing_field": '{"alpha": 0.01}',
}

# The command whose directory of the toy run holds each artifact.
MADE_BY = {"dataset.json": "synth", "truth.json": "synth", "causal.json": "granger", "checkpoint.json": "train"}
# The top-level keys of each artifact, and the flag that reads it.
REQUIRED_KEYS = {
    "causal.json": ("train-graph", ["alpha", "lag", "edges"]),
    "truth.json": ("eval-truth", ["true_edges"]),
    "checkpoint.json": ("eval-checkpoint", ["model_config", "train_config", "causal_graph", "params"]),
    "dataset.json": ("granger-dataset", ["format", "classes", "horizon", "features", "nodes", "hyperedges",
                                         "labels", "splits"]),
}

# What each artifact's format refuses, and the message it gives: a key
# "extra" added to each object of the artifact (the one reached by ``where``),
# or, where ``value`` is given, a format number stored as a float.
UNKNOWN_KEYS = {
    "dataset-top": ("dataset.json", (), None, "unknown field(s) extra"),
    "dataset-features": ("dataset.json", ("features",), None, "unknown field(s) features.extra"),
    "dataset-hyperedge": ("dataset.json", ("hyperedges", 0), None, "unknown field(s) hyperedges[0].extra"),
    "dataset-splits": ("dataset.json", ("splits",), None, "unknown field(s) splits.extra"),
    "dataset-float_format": ("dataset.json", (), {"format": 3.0}, "format must be int, got 3.0"),
    "causal-top": ("causal.json", (), None, "unknown field(s) extra"),
    "causal-edge": ("causal.json", ("edges", 0), None, "unknown field(s) edges[0].extra"),
    "truth-top": ("truth.json", (), None, "unknown field(s) extra"),
    "truth-edge": ("truth.json", ("true_edges", 0), None, "unknown field(s) true_edges[0].extra"),
    "checkpoint-top": ("checkpoint.json", (), None, "unknown field(s) extra"),
    "checkpoint-float_version": ("checkpoint.json", (), {"format_version": 6.0},
                                 "format_version must be int, got 6.0"),
}


class TestFiles:
    @pytest.mark.parametrize("content", list(BAD_FILES.values()), ids=list(BAD_FILES))
    @pytest.mark.parametrize("argv", list(FILE_FLAGS.values()), ids=list(FILE_FLAGS))
    def test_bad_input_file_is_input_error(self, tmp_path, toy_run, capsys, argv, content):
        bad = tmp_path / "input.json"
        if content is not None:
            bad.write_text(content)
        args = [a.format(bad=bad, run=toy_run) for a in argv]
        assert main(args + ["--out", str(tmp_path / "out")]) == 1
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("name, key", [(name, key) for name, (_, keys) in REQUIRED_KEYS.items() for key in keys])
    def test_missing_key_is_input_error(self, tmp_path, toy_run, capsys, name, key):
        flag, _ = REQUIRED_KEYS[name]
        doc = json.load(open(f"{toy_run}/{MADE_BY[name]}/{name}"))
        del doc[key]
        bad = tmp_path / name
        bad.write_text(json.dumps(doc))
        shutil.copy(f"{toy_run}/synth/dataset.npy", tmp_path)  # the dataset document's feature block
        args = [a.format(bad=bad, run=toy_run) for a in FILE_FLAGS[flag]]
        assert main(args + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and key in err

    @pytest.mark.parametrize("name, where, value, message", list(UNKNOWN_KEYS.values()), ids=list(UNKNOWN_KEYS))
    def test_key_the_format_does_not_list_is_input_error(self, tmp_path, toy_run, capsys, name, where, value, message):
        flag, _ = REQUIRED_KEYS[name]
        doc = json.load(open(f"{toy_run}/{MADE_BY[name]}/{name}"))
        obj = doc
        for step in where:
            obj = obj[step]
        obj.update(value or {"extra": 1})
        bad = tmp_path / name
        bad.write_text(json.dumps(doc))
        shutil.copy(f"{toy_run}/synth/dataset.npy", tmp_path)  # the dataset document's feature block
        args = [a.format(bad=bad, run=toy_run) for a in FILE_FLAGS[flag]]
        assert main(args + ["--out", str(tmp_path / "out")]) == 1
        assert f"{bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["synth", "--preset", "toy", "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err


class TestGradcheck:
    def test_passes_by_default(self, tmp_path):
        out = str(tmp_path / "g")
        assert main(["gradcheck", "--seed", "0", "--out", out]) == 0
        report = json.load(open(f"{out}/gradcheck.json"))
        assert list(report) == [f.name for f in dataclasses.fields(GradientCheckReport)]
        assert report["passed"] and report["max_rel_error"] <= 1e-4
        assert len(report["per_parameter"]) >= 8

    def test_corrupt_hook_fails(self, perturbed_gradients):
        assert main(["gradcheck", "--seed", "0"]) == 4


class TestManifest:
    def test_manifest_digests_match_files(self, tmp_path):
        out = str(tmp_path / "m")
        assert main(["synth", "--preset", "toy", "--seed", "4", "--out", out]) == 0
        manifest = json.load(open(f"{out}/manifest.json"))
        assert set(manifest["outputs"]) == {"dataset.json", "dataset.npy", "truth.json"}
        for name, digest in manifest["outputs"].items():
            assert sha(os.path.join(out, name)) == digest

    def test_synth_hashes_the_block_once(self, tmp_path, monkeypatch):
        hashed, digest = [], artifacts.file_digest
        monkeypatch.setattr(artifacts, "file_digest", lambda p: hashed.append(p) or digest(p))
        out = str(tmp_path / "m")
        assert main(["synth", "--preset", "toy", "--seed", "4", "--out", out]) == 0
        block = os.path.join(out, "dataset.npy")
        assert block not in hashed and len(hashed) == 2
        manifest = json.load(open(f"{out}/manifest.json"))
        assert manifest["outputs"]["dataset.npy"] == artifacts.file_digest(block)

    def test_config_digest_covers_settings_not_paths(self, tmp_path):
        def digest(out):
            return json.load(open(f"{out}/manifest.json"))["config_digest"]

        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        synth, granger = {}, {}
        for out in (a, b):
            assert main(["synth", "--preset", "toy", "--seed", "4", "--out", out]) == 0
            synth[out] = digest(out)
            assert main(["granger", "--dataset", f"{out}/dataset.json", "--out", out]) == 0
            granger[out] = digest(out)
        assert synth[a] == synth[b] and granger[a] == granger[b]
        assert main(["granger", "--dataset", f"{a}/dataset.json", "--lag", "3", "--out", a]) == 0
        assert digest(a) != granger[a]


def test_pipeline_artifacts_are_deterministic(tmp_path):
    """synth -> granger -> train -> eval twice with one seed: the same bytes.

    ``manifest.json`` and ``history.csv`` record wallclock, so they differ.
    """
    runs = [str(tmp_path / name) for name in ("a", "b")]
    for out in runs:
        ds = f"{out}/dataset.json"
        assert main(["synth", "--preset", "toy", "--seed", "5", "--out", out]) == 0
        assert main(["granger", "--dataset", ds, "--out", out]) == 0
        assert main(["train", "--dataset", ds, "--graph", f"{out}/causal.json", "--seed", "5",
                     "--out", out]) == 0
        assert main(["eval", "--checkpoint", f"{out}/checkpoint.json", "--dataset", ds,
                     "--truth", f"{out}/truth.json", "--seed", "5", "--out", out]) == 0
    names = sorted(set(os.listdir(runs[0])) - {"manifest.json", "history.csv"})
    assert sorted(set(os.listdir(runs[1])) - {"manifest.json", "history.csv"}) == names
    assert {"dataset.json", "dataset.npy", "truth.json", "causal.json", "checkpoint.json"} <= set(names)
    for name in names:
        assert sha(os.path.join(runs[0], name)) == sha(os.path.join(runs[1], name)), name
