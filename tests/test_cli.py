import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smalldev import cli, ensembles, linalg
from smalldev.cli import (
    BOUNDS,
    build_model,
    demo_config_names,
    demo_config_path,
    main,
    resolve_config,
)
from smalldev.ensembles import DEFAULT_MGF_SAMPLES, BoundedRankOne
from smalldev.errors import ConfigError, SmallDevError
from smalldev.linalg import HermitianMatrix
from smalldev.optimizer import OptimizerConfig

FAST_EXP_CONFIG = {
    "experiment": "fast-exp",
    "ensemble": {
        "repeat": 2,
        "source": {
            "kind": "scaled_fixed",
            "matrix": {"identity": 2},
            "law": {"kind": "exponential", "rate": 1.0},
        },
    },
    "bounds": [
        {"name": "master"},
        {"name": "series_sum"},
        {"name": "negative_moment", "p": 1.0},
    ],
    "eps_grid": [0.1, 0.2, 0.3],
    "simulation": {"n": 2000, "confidence": 0.99, "seed": 7},
    "mgf": {"mode": "analytic"},
}


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


class TestConfigValidation:
    def test_series_on_wishart_exits_2(self, tmp_path, capsys):
        cfg = {
            "experiment": "bad",
            "ensemble": {"source": {"kind": "wishart", "dim": 2, "dof": 2}},
            "bounds": [{"name": "series_sum"}],
            "eps_grid": [0.1],
        }
        code = main(["bound", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "series bounds require scaled_fixed sources" in capsys.readouterr().err

    def test_empty_eps_grid_exits_2(self, tmp_path, capsys):
        cfg = dict(FAST_EXP_CONFIG, eps_grid=[])
        assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2

    def test_zero_samples_exits_2(self, tmp_path):
        path = write_config(tmp_path, FAST_EXP_CONFIG)
        assert main(["simulate", "--config", path, "--samples", "0"]) == 2

    def test_unknown_bound_exits_2(self, tmp_path, capsys):
        cfg = dict(FAST_EXP_CONFIG, bounds=[{"name": "mystery"}])
        assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self):
        assert main(["bound", "--config", "/nonexistent/nowhere.yaml"]) == 2

    def test_analytic_mgf_on_wishart_exits_2(self, tmp_path, capsys):
        cfg = {
            "experiment": "bad",
            "ensemble": {"source": {"kind": "wishart", "dim": 2, "dof": 2}},
            "bounds": [{"name": "master"}],
            "eps_grid": [0.1],
            "mgf": {"mode": "analytic"},
        }
        assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
        assert "empirical" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            {"simulation": [1, 2]},
            {"simulation": {"n": "abc"}},
            {"mgf": {"n_samples": 0}},
            {"optimizer": {"theta_max": float("inf")}},
            {"optimizer": {"refine_tol": 0.0}},
            {"optimizer": {"refine_tol": float("inf")}},
            {"optimizer": {"max_refine_iters": -5}},
            {"eps_grid": [float("nan")]},
            {"eps_grid": {"start": 0.1, "stop": 0.2, "count": "abc"}},
            {"eps_grid": {"start": float("inf"), "stop": 0.2, "count": 3}},
            {"ensemble": {"source": {"kind": "bernoulli_diagonal", "dim": 1, "p": 0.5,
                                     "scale": float("nan")}},
             "bounds": ["chernoff_sum"]},
            {"ensemble": {"source": {"kind": "bounded_rank_one", "dim": 2,
                                     "bound": float("nan")}},
             "bounds": ["chernoff_sum"]},
            {"ensemble": {"source": {"kind": ["wishart"], "dim": 2, "dof": 2}}},
            {"ensemble": {"source": {"kind": "scaled_fixed", "matrix": {"diagonal": ["a"]},
                                     "law": {"kind": "exponential", "rate": 1.0}}}},
            {"ensemble": {"source": {"kind": "scaled_fixed", "matrix": {"identity": 2},
                                     "law": {"kind": "gamma", "shape": None, "rate": 1.0}}}},
            {"output": {"csv": [1]}},
            {"eps_grid": {"start": 0.1, "stop": 0, "count": 3, "spacing": "log"}},
            {"eps_grid": {"start": 0.1, "stop": -1, "count": 3, "spacing": "log"}},
            {"eps_grid": {"start": -1.0e308, "stop": 1.0e308, "count": 3}},
            {"eps_grid": {"start": 0.1, "stop": 0, "count": 1}},
            {"eps_grid": [0.1, True]},
            {"ensemble": dict(FAST_EXP_CONFIG["ensemble"], repeat=True)},
            {"ensemble": {"source": {"kind": "scaled_fixed", "matrix": {"identity": True},
                                     "law": {"kind": "exponential", "rate": 1.0}}}},
            {"ensemble": {"source": {"kind": "scaled_fixed", "matrix": {"diagonal": [True]},
                                     "law": {"kind": "exponential", "rate": 1.0}}}},
            {"ensemble": {"source": {"kind": "scaled_fixed",
                                     "matrix": {"dense": [[True, 0], [0, 1]]},
                                     "law": {"kind": "exponential", "rate": 1.0}}}},
            {"ensemble": {"source": {"kind": "scaled_fixed",
                                     "matrix": {"dense": [[1, 0], [0, 1]],
                                                "imag": [[0, False], [0, 0]]},
                                     "law": {"kind": "exponential", "rate": 1.0}}}},
            {"ensemble": {"source": {"kind": "scaled_fixed", "matrix": {"identity": 2},
                                     "law": {"kind": "exponential", "rate": True}}}},
            {"simulation": {"n": True}},
            {"optimizer": {"theta_min": True}},
        ],
        ids=[
            "simulation-list",
            "n-not-int",
            "zero-mgf-samples",
            "inf-theta-max",
            "zero-tol",
            "inf-tol",
            "negative-refine-iters",
            "nan-eps",
            "count-not-int",
            "inf-eps-start",
            "nan-scale",
            "nan-rank-one-bound",
            "unhashable-kind",
            "non-numeric-diagonal",
            "null-law-field",
            "csv-not-a-path",
            "log-grid-stop-zero",
            "log-grid-stop-negative",
            "linear-grid-past-the-float-range",
            "one-point-grid-stop-zero",
            "bool-eps",
            "bool-repeat",
            "bool-identity",
            "bool-diagonal",
            "bool-dense",
            "bool-imag",
            "bool-rate",
            "bool-n",
            "bool-theta-min",
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_section_exits_2_with_one_line(self, tmp_path, capsys, override):
        cfg = dict(FAST_EXP_CONFIG, **override)
        assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"simulation": {"n": 100.9}}, "simulation.n"),
            ({"simulation": {"seed": 7.5}}, "simulation.seed"),
            ({"mgf": {"n_samples": 2.5}}, "mgf.n_samples"),
            ({"optimizer": {"coarse_points": 50.5}}, "optimizer.coarse_points"),
            ({"optimizer": {"max_refine_iters": 3.5}}, "optimizer.max_refine_iters"),
            ({"eps_grid": {"start": 0.1, "stop": 0.3, "count": 3.5}}, "eps_grid.count"),
            ({"ensemble": {"source": {"kind": "wishart", "dim": 2.5, "dof": 2}}}, ".dim"),
            ({"ensemble": {"source": {"kind": "wishart", "dim": 2, "dof": 2.7}}}, ".dof"),
            ({"ensemble": dict(FAST_EXP_CONFIG["ensemble"], repeat=2.5)}, "ensemble.repeat"),
        ],
        ids=["n", "seed", "n_samples", "coarse_points", "max_refine_iters", "count",
             "dim", "dof", "repeat"],
    )
    def test_non_integral_integer_field_exits_2(self, tmp_path, capsys, override, key):
        cfg = dict(FAST_EXP_CONFIG, **override)
        assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{key} must be an integer" in err
        assert err.count("\n") == 1

    def test_integral_floats_accepted_as_integers(self, tmp_path, capsys):
        as_floats = dict(
            FAST_EXP_CONFIG,
            ensemble=dict(FAST_EXP_CONFIG["ensemble"], repeat=2.0),
            eps_grid={"start": 0.1, "stop": 0.3, "count": 3.0},
            simulation={"n": 2000.0, "seed": 7.0},
            mgf={"mode": "analytic", "n_samples": 100.0},
            optimizer={"coarse_points": 50.0, "max_refine_iters": 20.0},
        )
        as_ints = dict(
            FAST_EXP_CONFIG,
            eps_grid={"start": 0.1, "stop": 0.3, "count": 3},
            simulation={"n": 2000, "seed": 7},
            mgf={"mode": "analytic", "n_samples": 100},
            optimizer={"coarse_points": 50, "max_refine_iters": 20},
        )
        resolved = resolve_config(as_floats)
        assert resolved == resolve_config(as_ints)
        assert type(resolved["simulation"]["n"]) is int
        outputs = []
        for cfg in (as_floats, as_ints):
            assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_descending_grid_rejected(self, tmp_path):
        cfg = dict(FAST_EXP_CONFIG, eps_grid=[0.3, 0.1])
        assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize(
        "request_",
        [
            {"name": "negative_moment", "p": -1},
            {"name": "negative_moment", "p": float("nan")},
            {"name": "negative_moment", "Cp": "abc"},
            {"name": "negative_moment", "Cp": float("nan")},
            {"name": "g_theta", "g": {"builtin": "exp_envelope", "bound": -1}},
            {"name": "g_theta", "g": {"builtin": "exp_envelope", "bound": "x"}},
            {"name": "g_theta", "g": {"builtin": "exp_envelope", "bound": None}},
            {"name": "g_theta", "g": {"builtin": "log_rate", "rate": float("nan")}},
            {"name": "g_theta", "g": {"builtin": [1]}},
            {"name": "g_theta",
             "g": {"builtin": "power_envelope", "C": 1.0, "alpha": 1.0, "sign": "negative"}},
            {"name": ["master"]},
        ],
        ids=["p-negative", "p-nan", "Cp-abc", "Cp-nan", "g-bound-negative", "g-bound-x",
             "g-bound-null", "g-rate-nan", "g-builtin-unhashable", "g-sign-is-unknown-key",
             "name-unhashable"],
    )
    def test_malformed_bound_parameters_exit_2(self, tmp_path, capsys, request_):
        cfg = dict(FAST_EXP_CONFIG, bounds=[{"name": "master"}, request_])
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--samples", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    def test_float_field_message_names_the_field(self, tmp_path, capsys):
        source = {"kind": "bernoulli_diagonal", "dim": 1, "p": "x", "scale": 1.0}
        cfg = dict(FAST_EXP_CONFIG, ensemble={"source": source})
        assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: ensemble.source.p must be a number, got 'x'\n"
        )

    @pytest.mark.parametrize(
        "cfg_seed, flags", [(-1, []), (7, ["--seed", "-3"])], ids=["config", "flag"]
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, cfg_seed, flags):
        cfg = dict(FAST_EXP_CONFIG, simulation={"n": 100, "seed": cfg_seed})
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, *flags]) == 2
        assert "simulation.seed must be non-negative" in capsys.readouterr().err

    def test_unknown_mgf_mode_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = dict(FAST_EXP_CONFIG, mgf={"mode": "symbolic"})
        assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: mgf: unknown mgf mode 'symbolic'\n"

    def test_defaults_are_the_library_defaults(self):
        cfg = resolve_config({"ensemble": FAST_EXP_CONFIG["ensemble"], "eps_grid": [0.1]})
        assert cfg["optimizer"] == dataclasses.asdict(OptimizerConfig())
        assert cfg["mgf"]["n_samples"] == DEFAULT_MGF_SAMPLES

    @pytest.mark.parametrize("name", ["single", "master", "log_mean", "product"])
    def test_snapshot_above_physical_memory_exits_2_before_drawing(
        self, tmp_path, capsys, monkeypatch, name
    ):
        # At least 48 * n * d^2 bytes = 48 EiB at this size: no machine has
        # that much.
        cfg = dict(
            FAST_EXP_CONFIG,
            ensemble={"repeat": 2, "source": {"kind": "bounded_rank_one", "dim": 65536,
                                              "bound": 1.0}},
            bounds=[name],
            mgf={"mode": "empirical", "n_samples": 268435456},
        )

        def sample_batch(*args):
            raise AssertionError("a snapshot was drawn")

        monkeypatch.setattr(BoundedRankOne, "sample_batch", sample_batch)
        assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: bound {name!r} inapplicable: mgf.n_samples = 268435456 at dim 65536 "
        )
        assert err.count("\n") == 1

    def test_memory_guard_counts_every_snapshot_of_a_bound(
        self, tmp_path, capsys, monkeypatch
    ):
        # 16 n d^2 (K + 2) bytes at n=4000, d=4: 3.07 MB for single's one
        # snapshot, 10.24 MB for master's eight separately built sources.
        # 6 MB lies between.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 6_000_000 // 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        cfg = dict(
            FAST_EXP_CONFIG,
            ensemble={"sources": [{"kind": "bounded_rank_one", "dim": 4, "bound": 1.0}] * 8},
            eps_grid=[0.06],
            mgf={"mode": "empirical", "n_samples": 4000},
        )
        single = write_config(tmp_path, dict(cfg, bounds=["single"]), "single.yaml")
        assert main(["bound", "--config", single]) == 0
        capsys.readouterr()

        def sample_batch(*args):
            raise AssertionError("a snapshot was drawn")

        monkeypatch.setattr(BoundedRankOne, "sample_batch", sample_batch)
        master = write_config(tmp_path, dict(cfg, bounds=["master"]), "master.yaml")
        assert main(["bound", "--config", master]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: bound 'master' inapplicable: mgf.n_samples = 4000 at dim 4 "
        )
        assert err.count("\n") == 1

    def test_memory_guard_counts_a_repeated_source_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # repeat: 8 is one source object with one snapshot: 3.07 MB, under
        # the 6 MB that refuses eight separately built sources above.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 6_000_000 // 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        cfg = dict(
            FAST_EXP_CONFIG,
            ensemble={"repeat": 8, "source": {"kind": "bounded_rank_one", "dim": 4,
                                              "bound": 1.0}},
            bounds=["master"],
            eps_grid=[0.06],
            mgf={"mode": "empirical", "n_samples": 4000},
        )
        assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out.startswith("epsilon,bound,")

    def test_repeat_builds_one_object_and_a_list_one_per_entry(self):
        spec = {"kind": "bounded_rank_one", "dim": 2, "bound": 1.0}
        model = build_model({"repeat": 3, "source": spec})
        assert model.size == 3
        assert all(model.sources[k] is model.sources[0] for k in range(3))
        listed = build_model({"sources": [spec, spec, spec]})
        assert len({id(s) for s in listed.sources}) == 3

    def test_bundled_rank_one_draws_one_snapshot_per_distinct_source(
        self, tmp_path, monkeypatch
    ):
        # The sum (for single) and the one repeated source (for master,
        # log_mean and product): 2 snapshots, not 1 + 8.
        drawn = []

        class Counting(ensembles._Snapshot):
            __slots__ = ()

            def __init__(self, samples, vectors=True):
                drawn.append(samples.shape)
                super().__init__(samples, vectors)

        monkeypatch.setattr(ensembles, "_Snapshot", Counting)
        config = demo_config_path("bounded_rank_one")
        assert main(["bound", "--config", config, "--csv", str(tmp_path / "b.csv")]) == 0
        assert drawn == [(4000, 4, 4)] * 2

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"experiment: \xff\xfe\n")
        assert main(["bound", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {str(path)!r}: ")
        assert err.count("\n") == 1

    def test_yaml_1_2_exponent_floats_are_numbers(self, tmp_path, capsys):
        # YAML 1.1 reads 1.0e2 and 1e5 (no dot or no exponent sign) as strings.
        path = tmp_path / "exp.yaml"
        path.write_text(
            "ensemble:\n"
            "  repeat: 2\n"
            "  source: {kind: bernoulli_diagonal, dim: 1, p: 0.5, scale: 1.0e2}\n"
            "bounds: [chernoff_sum]\n"
            "eps_grid: [5e1, 1.5E+2]\n"
            "simulation: {n: 1e5, seed: 1}\n",
            encoding="utf-8",
        )
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(path), "--json", str(out)]) == 0
        echo = json.loads(out.read_text())["config_echo"]
        assert echo["ensemble"]["source"]["scale"] == 100.0
        assert isinstance(echo["ensemble"]["source"]["scale"], float)
        assert echo["simulation"]["n"] == 100_000
        assert echo["eps_grid"] == [50.0, 150.0]
        raw = cli.load_config(str(path))
        assert raw["simulation"]["n"] == 1e5 and isinstance(raw["simulation"]["n"], float)

    @pytest.mark.parametrize("value", ["abc", ""])
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_bad_threads_variable_exits_2_before_any_bound(
        self, tmp_path, capsys, monkeypatch, command, value
    ):
        monkeypatch.setenv("SMALLDEV_THREADS", value)

        def evaluate_bounds(*args):
            raise AssertionError("a bound was evaluated")

        monkeypatch.setattr(cli, "evaluate_bounds", evaluate_bounds)
        path = write_config(tmp_path, FAST_EXP_CONFIG)
        assert main([command, "--config", path, "--samples", "64"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: SMALLDEV_THREADS must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("command", ["bound", "simulate", "compare"])
    def test_threads_variable_below_one_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, value
    ):
        monkeypatch.setenv("SMALLDEV_THREADS", value)

        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "evaluate_bounds", refuse)
        monkeypatch.setattr(cli.mc, "estimate", refuse)
        path = write_config(tmp_path, FAST_EXP_CONFIG)
        assert main([command, "--config", path, "--samples", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: SMALLDEV_THREADS must be at least 1, got {value!r}\n"

    def test_duplicate_bound_exits_2(self, tmp_path, capsys):
        cfg = dict(FAST_EXP_CONFIG, bounds=["master", "series_sum", "master"])
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--samples", "64"]) == 2
        assert "bounds[2]: bound 'master' requested twice" in capsys.readouterr().err


_WISHART = {"source": {"kind": "wishart", "dim": 2, "dof": 2}}

# For every BOUNDS entry, an (ensemble, request parameters) pair it does not
# apply to in analytic mgf mode; a new entry without a case here fails.
_INAPPLICABLE = {
    "single": (FAST_EXP_CONFIG["ensemble"], {}),  # two sources, no closed form
    "master": (_WISHART, {}),
    "g_theta": (
        FAST_EXP_CONFIG["ensemble"],
        {"g": {"builtin": "log_rate", "rate": 1.0}, "dominators": "bogus"},
    ),
    "log_mean": (_WISHART, {}),
    "product": (_WISHART, {}),
    "negative_moment": (
        {"source": {"kind": "bernoulli_diagonal", "dim": 1, "p": 0.0, "scale": 1.0}},
        {},
    ),
    "chernoff_sum": (_WISHART, {}),
    "chernoff_product": (_WISHART, {}),
    "series_sum": (_WISHART, {}),
    "series_product": (_WISHART, {}),
}


def _assert_rejected_by_validation(tmp_path, capsys, monkeypatch, ensemble, bounds):
    """simulate, which only validates, and bound both exit 2 with one
    config error line; bound exits before it evaluates any bound."""
    cfg = dict(FAST_EXP_CONFIG, ensemble=ensemble, bounds=bounds)
    path = write_config(tmp_path, cfg)

    def evaluate_bounds(*args):
        raise AssertionError("validation passed a config that bound rejects")

    monkeypatch.setattr(cli, "evaluate_bounds", evaluate_bounds)
    for command in ("simulate", "bound"):
        assert main([command, "--config", path, "--samples", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("name", list(BOUNDS))
def test_every_bound_rejects_an_inapplicable_model(tmp_path, capsys, monkeypatch, name):
    ensemble, params = _INAPPLICABLE[name]
    _assert_rejected_by_validation(
        tmp_path, capsys, monkeypatch, ensemble, [{"name": name, **params}]
    )


# Configs whose bound set-up leaves the float range: validation used to
# pass them, and bound then failed after it had done work.
_TINY_MEAN = {
    "sources": [{"kind": "bernoulli_diagonal", "dim": 1, "p": 1.0e-300, "scale": 1.0}] * 2
}
_HUGE_SCALED_FIXED = {
    "repeat": 2,
    "source": {
        "kind": "scaled_fixed",
        "matrix": {"diagonal": [1.0e300]},
        "law": {"kind": "exponential", "rate": 1.0e-300},
    },
}
# A^(-alpha) with alpha = 50 has the entry 1e500, past the float range.
_HUGE_MATRIX_POWER = {
    "repeat": 2,
    "source": {
        "kind": "scaled_fixed",
        "matrix": {"diagonal": [1.0e-10, 1.0]},
        "law": {"kind": "gamma", "shape": 50, "rate": 1},
    },
}
# The gamma law's envelope constant rate**shape is 1e500000.
_HUGE_ENVELOPE = {
    "repeat": 2,
    "source": {
        "kind": "scaled_fixed",
        "matrix": {"identity": 2},
        "law": {"kind": "gamma", "shape": 1.0e5, "rate": 1.0e5},
    },
}
# g(theta) * eta overflows at every theta: g is about 700 and eta is 1e308.
_HUGE_MEAN = {"source": {"kind": "bernoulli_diagonal", "dim": 1, "p": 1.0, "scale": 1.0e308}}
_HUGE_G = {"builtin": "power_envelope", "C": 1.0e300, "alpha": 1.0}


@pytest.mark.parametrize(
    "ensemble, bounds",
    [
        (_TINY_MEAN, [{"name": "negative_moment", "p": 2.0}]),
        (_HUGE_SCALED_FIXED, ["series_product"]),
        (_HUGE_SCALED_FIXED, ["series_sum"]),
        (_HUGE_MATRIX_POWER, ["series_sum"]),
        (_HUGE_MATRIX_POWER, ["series_product"]),
        (_HUGE_ENVELOPE, ["series_sum"]),
        (_HUGE_ENVELOPE, ["series_product"]),
        (_HUGE_MEAN, ["master", {"name": "g_theta", "g": _HUGE_G}]),
    ],
    ids=["cp-overflow", "series-product-cutoff-overflow", "series-sum-c-nu-underflow",
         "series-sum-matrix-power-overflow", "series-product-matrix-power-overflow",
         "series-sum-envelope-overflow", "series-product-envelope-overflow",
         "g-theta-objective-overflows"],
)
def test_validation_rejects_what_evaluation_would(
    tmp_path, capsys, monkeypatch, ensemble, bounds
):
    _assert_rejected_by_validation(tmp_path, capsys, monkeypatch, ensemble, bounds)


# g = -log(theta) is positive below theta = 1 and negative above it.
_SIGN_CHANGING_G = {"builtin": "power_envelope", "C": 1.0, "alpha": 1.0}


def test_g_theta_with_g_changing_sign_on_the_grid_runs(tmp_path):
    # Each theta is bounded with the eta of g's sign there: eta1 = 3 and
    # eta2 = 1 for the summed means diag(1, 3).  For eps < eta2 the minimum
    # lies where g < 0, so the run matches one whose range starts above
    # theta = 1, and its details record both eta.
    ensemble = copy.deepcopy(FAST_EXP_CONFIG["ensemble"])
    ensemble["source"]["matrix"] = {"diagonal": [0.5, 1.5]}
    rows = []
    for optimizer in ({}, {"theta_min": 1.000001}):
        cfg = dict(
            FAST_EXP_CONFIG,
            ensemble=ensemble,
            bounds=[{"name": "g_theta", "g": _SIGN_CHANGING_G}],
            optimizer=optimizer,
        )
        out = tmp_path / "b.json"
        assert main(["bound", "--config", write_config(tmp_path, cfg), "--json", str(out)]) == 0
        rows.append(json.loads(out.read_text())["rows"])
    full, negative = rows
    assert [(r["details"]["eta1"], r["details"]["eta2"]) for r in full] == [(3.0, 1.0)] * 3
    assert all("eta1" not in r["details"] for r in negative)
    for a, b in zip(full, negative):
        assert 0 < a["value"] < 1
        assert a["value"] == pytest.approx(b["value"], rel=1e-12)
        assert a["theta_star"] == pytest.approx(b["theta_star"], rel=1e-6)


_MUTATIONS = [None, "abc", -1, 0, 2.5, float("nan"), float("inf"), [1], {}]


def _key_paths(node, path=()):
    """The key path of every mapping value and list element under node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_bundled_config_exits_0_or_2(tmp_path, capsys, data):
    name = data.draw(st.sampled_from(demo_config_names()))
    with open(demo_config_path(name), encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    path = data.draw(st.sampled_from(list(_key_paths(cfg))))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(_MUTATIONS)))
    argv = ["simulate", "--config", write_config(tmp_path, cfg), "--samples", "64",
            "--csv", str(tmp_path / "estimates.csv")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("config error: ")
        assert err.count("\n") == 1


_SOURCE = FAST_EXP_CONFIG["ensemble"]["source"]
_LOG_RATE = {"builtin": "log_rate", "rate": 1.0}


def _with_source(**fields):
    return {"source": dict(_SOURCE, **fields)}


# One case per place where the config names its keys: (override, where, key).
_UNKNOWN_KEYS = {
    "top-level": ({"simulaton": {"n": 10}}, "config", "simulaton"),
    "simulation": ({"simulation": {"n": 10, "sed": 1}}, "simulation", "sed"),
    "mgf": ({"mgf": {"mode": "analytic", "n_sample": 5}}, "mgf", "n_sample"),
    "optimizer": ({"optimizer": {"theta_mn": 5}}, "optimizer", "theta_mn"),
    "output": ({"output": {"cvs": "out.csv"}}, "output", "cvs"),
    "eps_grid": (
        {"eps_grid": {"start": 0.1, "stop": 0.3, "count": 3, "spaceing": "log"}},
        "eps_grid",
        "spaceing",
    ),
    "ensemble": ({"ensemble": dict(FAST_EXP_CONFIG["ensemble"], repaet=3)}, "ensemble",
                 "repaet"),
    "source": ({"ensemble": _with_source(colour="red")}, "ensemble.source", "colour"),
    "sources-entry": (
        {"ensemble": {"sources": [_SOURCE, dict(_SOURCE, colour="red")]}},
        "ensemble.sources[1]",
        "colour",
    ),
    "law": (
        {"ensemble": _with_source(law={"kind": "exponential", "rate": 1.0, "rates": 2.0})},
        "ensemble.source.law",
        "rates",
    ),
    "matrix": (
        {"ensemble": _with_source(matrix={"identity": 2, "diag": [1.0, 2.0]})},
        "ensemble.source.matrix",
        "diag",
    ),
    "g-builtin": (
        {"bounds": [{"name": "g_theta", "g": dict(_LOG_RATE, rat=2.0)}]},
        "g_theta.g",
        "rat",
    ),
    "negative_moment-request": (
        {"bounds": [{"name": "negative_moment", "p": 1.0, "cp": 2.0}]},
        "bounds[0]",
        "cp",
    ),
    "g_theta-request": (
        {"bounds": [{"name": "g_theta", "g": _LOG_RATE, "dominator": "mean"}]},
        "bounds[0]",
        "dominator",
    ),
    "master-request": ({"bounds": ["single", {"name": "master", "p": 7}]}, "bounds[1]", "p"),
}


@pytest.mark.parametrize("site", list(_UNKNOWN_KEYS))
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, site):
    override, where, key = _UNKNOWN_KEYS[site]
    cfg = dict(FAST_EXP_CONFIG, **override)
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}: unknown key {key!r}; expected one of ")
    assert err.count("\n") == 1


# Entries near the float limit: symmetrizing them once overflowed to inf.
_HUGE_ENTRIES = {
    "bernoulli-scale": (
        {"repeat": 2, "source": {"kind": "bernoulli_diagonal", "dim": 1, "p": 0.5,
                                 "scale": 1.0e308}},
        ["chernoff_sum", "master"],
    ),
    "scaled-fixed-diagonal": (
        {"source": {"kind": "scaled_fixed", "matrix": {"diagonal": [1.0e308]},
                    "law": {"kind": "exponential", "rate": 1.0}}},
        ["negative_moment"],
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(_HUGE_ENTRIES))
def test_entries_near_the_float_limit_give_finite_valid_bounds(tmp_path, capsys, case):
    ensemble, bounds = _HUGE_ENTRIES[case]
    cfg = dict(FAST_EXP_CONFIG, ensemble=ensemble, bounds=bounds)
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.strip().split("\n")[1:]
    assert len(rows) == len(bounds) * len(cfg["eps_grid"])
    for row in rows:
        _eps, _name, value, raw, _theta, valid = row.split(",")
        assert math.isfinite(float(raw)) and 0.0 < float(value) < 1.0
        assert valid == "true"


_HUGE_BERNOULLI = {"repeat": 2, "source": {"kind": "bernoulli_diagonal", "dim": 1, "p": 0.5,
                                            "scale": 1.0e308}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_empirical_master_at_the_float_limit_is_warning_free(tmp_path, capsys):
    # Snapshot draws of 1e308 weigh exp(-theta * 1e308) = 0 in the mgf.
    cfg = dict(FAST_EXP_CONFIG, ensemble=_HUGE_BERNOULLI, bounds=["master"],
               mgf={"mode": "empirical", "n_samples": 400})
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for row in captured.out.strip().split("\n")[1:]:
        _eps, _name, value, _raw, _theta, valid = row.split(",")
        assert 0.0 < float(value) < 1.0 and valid == "true"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_at_the_float_limit_is_warning_free(tmp_path, capsys):
    # Two 1e308 draws sum to inf, which lies above every eps, so the hits are
    # those of the same draws at scale 1: both Bernoulli draws zero.
    eps = [0.5, 0.9]
    outs = []
    for scale in (1.0e308, 1.0):
        ensemble = {"repeat": 2, "source": dict(_HUGE_BERNOULLI["source"], scale=scale)}
        cfg = dict(FAST_EXP_CONFIG, ensemble=ensemble, bounds=["master"], eps_grid=eps)
        path = write_config(tmp_path, cfg, f"scale{scale}.yaml")
        assert main(["simulate", "--config", path, "--samples", "1000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    assert outs[0] == outs[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_with_draws_past_the_float_range_is_warning_free(tmp_path, capsys):
    # x * 1e308 overflows for x > 1.797: such a draw is inf, a miss at every
    # eps, so the hits at eps = 1e308 count the draws with x <= 1, as the
    # same draws of x * I do at eps = 1.
    hits = []
    for diagonal, eps in (([1.0e308, 1.0e308], [0.5, 1.0e308]), ([1.0, 1.0], [0.5e-308, 1.0])):
        source = {"kind": "scaled_fixed", "matrix": {"diagonal": diagonal},
                  "law": {"kind": "uniform", "high": 1.9}}
        cfg = dict(FAST_EXP_CONFIG, ensemble={"repeat": 1, "source": source},
                   bounds=["negative_moment"], eps_grid=eps)
        path = write_config(tmp_path, cfg, f"{diagonal[0]}.yaml")
        assert main(["simulate", "--config", path, "--samples", "1000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        hits.append([row.split(",")[2] for row in captured.out.strip().split("\n")[1:]])
    assert hits[0] == hits[1]
    assert hits[0][0] == "0" and 0 < int(hits[0][1]) < 1000


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mean_of_the_sum_past_the_float_range_exits_2_naming_it(tmp_path, capsys):
    source = {"kind": "scaled_fixed", "matrix": {"diagonal": [1.0e308, 1.0]},
              "law": {"kind": "exponential", "rate": 1.0}}
    cfg = dict(FAST_EXP_CONFIG, ensemble={"repeat": 2, "source": source},
               bounds=["negative_moment"])
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: bound 'negative_moment' inapplicable: "
        "the mean of the sum, sum_k E X_k, is outside the float range\n"
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compare_at_eps_near_the_float_limit_exits_0(tmp_path, capsys):
    # theta * eps leaves the float range in the theta-scans; a warning there
    # would end compare with exit 1, the code of a domination violation.
    g_theta = {"name": "g_theta", "g": {"builtin": "log_rate", "rate": 1.0},
               "dominators": "identity"}
    cfg = dict(FAST_EXP_CONFIG, bounds=["master", g_theta], eps_grid=[1.0e300, 1.0e308])
    assert main(["compare", "--config", write_config(tmp_path, cfg), "--samples", "200"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_negative_moment_below_the_float_range_of_eps_power(tmp_path, capsys):
    # Cp = 1e300 * (1 + 1e-6) and eps^2 = 1e-400 or 1e-320: the power alone
    # underflows to 0 or to a subnormal with few digits, Cp * eps^2 does not.
    ensemble = {"repeat": 2, "source": {"kind": "bernoulli_diagonal", "dim": 1, "p": 0.5,
                                        "scale": 1.0e-150}}
    cfg = dict(FAST_EXP_CONFIG, ensemble=ensemble, bounds=[{"name": "negative_moment", "p": 2}],
               eps_grid=[1.0e-200, 1.0e-160])
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [row.split(",") for row in captured.out.strip().split("\n")[1:]]
    for row, expected in zip(rows, [1.000001e-100, 1.000001e-20], strict=True):
        assert math.isclose(float(row[2]), expected, rel_tol=1e-12)
        assert row[3] == row[2] and row[5] == "true"


def _strict_json(text: str):
    """json.loads that refuses the non-standard tokens Infinity and NaN."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_bound_json_writes_an_overflowing_theta_star_as_null(tmp_path):
    # alpha K / eps overflows at eps = 5e-324: the parent wrote the bare
    # token Infinity for both series rows there.
    with open(demo_config_path("exponential_series"), encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    cfg["eps_grid"] = [5.0e-324, 1.0e-300]
    out, csv = tmp_path / "bounds.json", tmp_path / "bounds.csv"
    args = ["bound", "--config", write_config(tmp_path, cfg), "--json", str(out), "--csv", str(csv)]
    assert main(args) == 0
    rows = _strict_json(out.read_text())["rows"]
    series = {(r["epsilon"], r["bound"]): r["theta_star"] for r in rows if "series" in r["bound"]}
    assert series == {
        (5e-324, "series_sum"): None,
        (5e-324, "series_product"): None,
        (1e-300, "series_sum"): pytest.approx(2e300, rel=1e-15),
        (1e-300, "series_product"): pytest.approx(1e300, rel=1e-15),
    }
    # The CSV keeps the number.
    csv_rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [r[4] for r in csv_rows if "series" in r[1] and float(r[0]) == 5e-324] == ["inf"] * 2


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_number_in_a_json_report_is_a_numerical_error(value):
    with pytest.raises(SmallDevError, match="non-finite"):
        cli._json_text({"rows": [{"x": value}]})


@pytest.mark.parametrize("command", ["bound", "simulate", "compare"])
def test_json_reports_of_the_bundled_configs_are_strict(command, tmp_path):
    for name in demo_config_names():
        out = tmp_path / f"{command}-{name}.json"
        code = main([command, "--config", demo_config_path(name), "--samples", "2000",
                     "--json", str(out)])
        assert code == 0
        assert _strict_json(out.read_text())["experiment"]


def _edited_exponential_series(case: str) -> dict:
    with open(demo_config_path("exponential_series"), encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    source = cfg["ensemble"]["source"]
    if case == "eps-near-the-float-limit":
        cfg["eps_grid"] = [1.0e300, 1.0e308]
    elif case == "singular-psd-at-scale-1e8":
        # psd up to roundoff, so the series bounds, which need A > 0, go.
        source["matrix"] = {"dense": [[1.0e8] * 3 for _ in range(3)]}
        cfg["bounds"] = [b for b in cfg["bounds"] if not b["name"].startswith("series_")]
    elif case == "draws-past-the-float-range":
        # x * A overflows for x > 1.797: such a draw is inf, a miss at every eps.
        source.update(matrix={"diagonal": [1.0e308, 1.0e308]}, law={"kind": "uniform", "high": 1.9})
        cfg["ensemble"]["repeat"] = 1
        cfg["eps_grid"] = [0.5, 1.0e308]
    else:  # g changing sign at theta = 1
        g_theta = next(b for b in cfg["bounds"] if b["name"] == "g_theta")
        g_theta["g"] = _SIGN_CHANGING_G
    return cfg


# The command each edit of the bundled exponential_series runs.
_BUNDLED_LIMITS = {
    "eps-near-the-float-limit": ["compare", "--samples", "100"],
    "singular-psd-at-scale-1e8": ["bound"],
    "draws-past-the-float-range": ["simulate", "--samples", "1000"],
    "g-changing-sign": ["bound"],
}


@pytest.mark.parametrize("case", list(_BUNDLED_LIMITS))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bundled_config_at_its_limits_exits_0(tmp_path, capsys, case):
    # Every bound the bundled exponential_series requests, not only the ones
    # a narrower test above singles out.
    command, *flags = _BUNDLED_LIMITS[case]
    path = write_config(tmp_path, _edited_exponential_series(case))
    assert main([command, "--config", path, *flags]) == 0
    assert capsys.readouterr().err == ""


class TestBoundCommand:
    def test_csv_schema_on_demo_config(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(
            [
                "bound",
                "--config",
                demo_config_path("bernoulli_diagonal"),
                "--csv",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "epsilon,bound,value,raw_value,theta_star,valid"
        n_bounds = 7  # bounds requested by the bundled config
        assert len(lines) == 1 + 10 * n_bounds
        first = lines[1].split(",")
        assert first[0] == "0.044999999999999998"
        assert first[-1] in ("true", "false")

    def test_stdout_when_no_paths(self, tmp_path, capsys):
        code = main(["bound", "--config", write_config(tmp_path, FAST_EXP_CONFIG)])
        assert code == 0
        outp = capsys.readouterr().out
        assert outp.startswith("epsilon,bound,")

    def test_json_rows_and_echo(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = main(
            [
                "bound",
                "--config",
                write_config(tmp_path, FAST_EXP_CONFIG),
                "--csv",
                str(tmp_path / "b.csv"),
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"experiment", "rows", "config_echo"}
        assert len(payload["rows"]) == 3 * 3
        assert payload["config_echo"]["simulation"]["seed"] == 7


class TestSimulateCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        path = write_config(tmp_path, FAST_EXP_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", path, "--csv", str(a)]) == 0
        assert main(["simulate", "--config", path, "--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[0] == "epsilon,n,hits,p_hat,ci_low,ci_high"
        assert len(lines) == 4

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, FAST_EXP_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", path, "--csv", str(a)])
        main(["simulate", "--config", path, "--csv", str(b), "--seed", "8"])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_json_rows_and_echo(self, tmp_path, capsys, where):
        out = tmp_path / "sim.json"
        cfg = dict(FAST_EXP_CONFIG, output={"json": str(out)} if where == "config" else {})
        argv = ["simulate", "--config", write_config(tmp_path, cfg), "--samples", "500"]
        assert main(argv + (["--json", str(out)] if where == "flag" else [])) == 0
        assert capsys.readouterr().out == ""  # as for bound: a path set, no stdout
        payload = json.loads(out.read_text())
        assert set(payload) == {"experiment", "rows", "config_echo"}
        assert payload["config_echo"]["output"]["json"] == str(out)
        assert [r["epsilon"] for r in payload["rows"]] == FAST_EXP_CONFIG["eps_grid"]
        assert set(payload["rows"][0]) == {
            "epsilon", "n", "hits", "p_hat", "ci_low", "ci_high", "confidence"
        }
        csv = tmp_path / "sim.csv"
        assert main(argv + ["--csv", str(csv)]) == 0
        csv_rows = csv.read_text().strip().split("\n")[1:]
        assert [int(r.split(",")[2]) for r in csv_rows] == [
            r["hits"] for r in payload["rows"]
        ]

    def test_demo_config_byte_identical_runs(self, tmp_path):
        config = demo_config_path("bernoulli_diagonal")
        out = tmp_path / "sim.csv"
        runs = []
        for _ in range(2):
            assert main(
                ["simulate", "--config", config, "--csv", str(out), "--samples", "5000"]
            ) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]


class TestCompareCommand:
    def test_exit_zero_and_report_fields(self, tmp_path, capsys):
        code = main(["compare", "--config", write_config(tmp_path, FAST_EXP_CONFIG)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"experiment", "rows", "violations", "config_echo"}
        assert payload["violations"] == 0
        row = payload["rows"][0]
        assert set(row) == {
            "epsilon",
            "bound_name",
            "bound_value",
            "p_hat",
            "ci_low",
            "ci_high",
            "dominated",
        }

    def test_scaled_down_bounds_force_violation(self, tmp_path, capsys):
        code = main(
            [
                "compare",
                "--config",
                write_config(tmp_path, FAST_EXP_CONFIG),
                "--scale-bounds",
                "0.0",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] > 0

    @pytest.mark.parametrize("scale", ["nan", "-1", "inf"])
    def test_non_finite_or_negative_scale_exits_2_before_any_bound(
        self, tmp_path, capsys, monkeypatch, scale
    ):
        def evaluate_bounds(*args):
            raise AssertionError("a bound was evaluated")

        monkeypatch.setattr(cli, "evaluate_bounds", evaluate_bounds)
        path = write_config(tmp_path, FAST_EXP_CONFIG)
        assert main(["compare", "--config", path, "--scale-bounds", scale]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --scale-bounds must be finite and non-negative")
        assert err.count("\n") == 1

    def test_writes_both_artifacts(self, tmp_path):
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        code = main(
            [
                "compare",
                "--config",
                write_config(tmp_path, FAST_EXP_CONFIG),
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        header = csv_path.read_text().split("\n", 1)[0]
        assert header == "epsilon,bound,bound_value,p_hat,ci_low,ci_high,dominated"
        assert json.loads(json_path.read_text())["violations"] == 0

    def test_simulation_holds_no_mgf_model(self, tmp_path, monkeypatch):
        # A small copy of the bundled bounded_rank_one: empirical snapshots
        # are drawn for the bounds, and all of them are garbage by the time
        # the simulation starts.
        cfg = yaml.safe_load(Path(demo_config_path("bounded_rank_one")).read_text())
        cfg["mgf"]["n_samples"] = 200
        cfg["simulation"]["n"] = 2000
        cfg["eps_grid"]["count"] = 3
        models, entered = [], []
        make, evaluate, simulate = cli.MgfModel, cli.evaluate_bounds, cli.mc.estimate

        def recording_model(*args, **kwargs):
            mgf = make(*args, **kwargs)
            models.append(weakref.ref(mgf))
            return mgf

        def recording_evaluate(requests, model, mgf, *args):
            bound_map = evaluate(requests, model, mgf, *args)
            assert mgf._snapshots
            return bound_map

        def recording_estimate(*args, **kwargs):
            entered.append([ref() for ref in models])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(cli, "MgfModel", recording_model)
        monkeypatch.setattr(cli, "evaluate_bounds", recording_evaluate)
        monkeypatch.setattr(cli.mc, "estimate", recording_estimate)
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--json", str(tmp_path / "r.json")]) == 0
        assert entered == [[None]]

    def test_runs_with_scipy_unimportable(self, tmp_path):
        # A None entry in sys.modules makes every scipy import raise
        # ImportError, so this fails if any module on the compare path
        # imports scipy.
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from smalldev.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src_dir = str(Path(cli.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        json_path = tmp_path / "r.json"
        config = demo_config_path("bernoulli_diagonal")
        args = ["compare", "--config", str(config), "--json", str(json_path)]
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(json_path.read_text())["violations"] == 0


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command", ["bound", "simulate", "compare"])
def test_report_into_a_missing_directory_exits_2(tmp_path, capsys, command, where):
    target = str(tmp_path / "missing" / "report.csv")
    cfg = dict(FAST_EXP_CONFIG, output={"csv": target} if where == "config" else {})
    argv = [command, "--config", write_config(tmp_path, cfg), "--samples", "64"]
    assert main(argv + (["--csv", target] if where == "flag" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {target!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--csv", "--json"])
@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("command", ["bound", "simulate", "compare"])
def test_unwritable_report_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, target, flag
):
    def work(*args, **kwargs):
        raise AssertionError("work ran before the report path was checked")

    for name in ("validate_requests", "evaluate_bounds"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setattr(cli.mc, "estimate", work)
    path = str(tmp_path / "missing" / "r.out" if target == "missing" else tmp_path)
    argv = ["--config", write_config(tmp_path, FAST_EXP_CONFIG), "--samples", "64"]
    assert main([command, *argv, flag, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {path!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["bound", "simulate", "compare"])
def test_unwritable_json_leaves_no_csv(tmp_path, capsys, command):
    csv_path = tmp_path / "ok.csv"
    json_path = tmp_path / "missing" / "b.json"
    argv = ["--config", write_config(tmp_path, FAST_EXP_CONFIG), "--samples", "64"]
    assert main([command, *argv, "--csv", str(csv_path), "--json", str(json_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {str(json_path)!r}: ")
    assert not csv_path.exists()


# The same file, spelled the same way or not: the two reports, or the JSON
# report and the config, which the report would overwrite.  Per clash: the
# config's output section, the --csv flag, the --json path, and the name of
# the first of the two in the error.
_CLASHES = {
    "csv-json": ({"csv": "r.out", "json": "./r.out"}, ["--csv", "r.out"], "r.out", "output.csv"),
    "config-json": ({"json": "./config.yaml"}, [], "config.yaml", "config"),
}


@pytest.mark.parametrize("clash", list(_CLASHES))
@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command", ["bound", "simulate", "compare"])
def test_csv_and_json_naming_one_file_exit_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, where, clash
):
    def work(*args, **kwargs):
        raise AssertionError("work ran before the report paths were compared")

    for name in ("validate_requests", "evaluate_bounds"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setattr(cli.mc, "estimate", work)
    monkeypatch.chdir(tmp_path)
    output, csv_flag, json_path, first = _CLASHES[clash]
    cfg = dict(FAST_EXP_CONFIG, output=output if where == "config" else {})
    argv = [command, "--config", write_config(tmp_path, cfg), "--samples", "64"]
    before = (tmp_path / "config.yaml").read_bytes()
    flags = [*csv_flag, "--json", json_path] if where == "flag" else []
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {first} and output.json name one file: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.out").exists()
    assert (tmp_path / "config.yaml").read_bytes() == before


def _scaled_fixed(matrix: dict) -> dict:
    law = {"kind": "exponential", "rate": 1.0}
    return {"repeat": 2, "source": {"kind": "scaled_fixed", "matrix": matrix, "law": law}}


@pytest.mark.parametrize(
    "matrix, message",
    [
        ({"dense": [[2, 1], [0, 2]]}, "matrix dense (with imag) is not Hermitian"),
        ({"diagonal": [1, 2], "imag": [[0, 1], [-1, 0]]},
         "matrix imag is only allowed with dense"),
        ({"dense": [[2, 0], [0, 2]], "imag": [[1]]},
         "matrix imag has shape (1, 1), dense (2, 2)"),
        ({"identity": 2, "diagonal": [5, 7]},
         "matrix needs exactly one of identity, diagonal or dense"),
        ({"dense": [[0.0, 1.5e308], [-1.5e308, 0.0]]},
         "matrix dense (with imag) is not Hermitian"),
        ({"dense": [[1.0, 0.0], [0.0, 1.0]], "imag": [[0.0, math.inf], [-math.inf, 0.0]]},
         "matrix entries must be finite"),
    ],
    ids=["non-hermitian-dense", "imag-without-dense", "imag-of-another-shape",
         "identity-and-diagonal", "huge-antisymmetric", "infinite-imag"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_matrix_exits_2(tmp_path, capsys, matrix, message):
    cfg = dict(FAST_EXP_CONFIG, ensemble=_scaled_fixed(matrix))
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: ensemble.source: {message}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_singular_psd_matrix_at_large_scale_exits_0(tmp_path, capsys):
    # Its lambda_min comes out near -4e-8: psd up to roundoff at scale 1e8.
    matrix = {"dense": [[1.0e8] * 3 for _ in range(3)]}
    cfg = dict(FAST_EXP_CONFIG, ensemble=_scaled_fixed(matrix), bounds=["master", "product"])
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.count(",product,") == len(FAST_EXP_CONFIG["eps_grid"])


@pytest.mark.parametrize(
    "matrix",
    [
        {"dense": [[2.0, 0.5], [0.5, 1.0]], "imag": [[0.0, 1.0], [-1.0, 0.0]]},
        # Asymmetric by roundoff only.
        {"dense": [[1.0, 0.1 + 0.2], [0.3, 1.0]]},
        {"dense": [[2.0e300, 1.0e300], [1.0e300 * (1 + 1e-15), 2.0e300]]},
    ],
    ids=["complex-hermitian", "roundoff", "huge"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hermitian_dense_matrix_is_accepted(tmp_path, capsys, matrix):
    cfg = dict(FAST_EXP_CONFIG, ensemble=_scaled_fixed(matrix), bounds=["master"])
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""


# Sizes whose arrays numpy refuses to allocate at once (8 TB of float64).
@pytest.mark.parametrize(
    "override, flags",
    [
        ({}, ["--coarse-points", "1000000000000"]),
        ({"eps_grid": {"start": 0.03, "stop": 0.3, "count": 1.0e12}}, []),
    ],
    ids=["coarse-points", "eps-grid-count"],
)
def test_input_too_large_for_memory_exits_2(tmp_path, capsys, override, flags):
    path = write_config(tmp_path, dict(FAST_EXP_CONFIG, **override))
    assert main(["bound", "--config", path, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out of memory: ")
    assert err.count("\n") == 1


# The bundled exponential_series requests: every one applies to the model.
_APPLICABLE_REQUESTS = [
    "master",
    "log_mean",
    "product",
    {"name": "g_theta", "g": {"builtin": "log_rate", "rate": 1.0}, "dominators": "identity"},
    {"name": "negative_moment", "p": 1.0},
    "series_sum",
    "series_product",
]


_TEN_BERNOULLI = {
    "repeat": 10,
    "source": {"kind": "bernoulli_diagonal", "dim": 1, "p": 0.5, "scale": 1.0},
}


@pytest.mark.parametrize("command", ["bound", "simulate", "compare"])
def test_every_request_is_prepared_once(tmp_path, monkeypatch, command):
    """Validation prepares each request, and evaluation only runs what it
    prepared: a closed form is computed once per command."""
    prepared = []
    for name, (prepare, keys) in BOUNDS.items():

        def counted(req, *args, prepare=prepare):
            prepared.append(req["name"])
            return prepare(req, *args)

        monkeypatch.setitem(BOUNDS, name, (counted, keys))
    cfg = dict(FAST_EXP_CONFIG, bounds=_APPLICABLE_REQUESTS)
    out = tmp_path / "r.json"
    argv = ["--config", write_config(tmp_path, cfg), "--samples", "64", "--json", str(out)]
    assert main([command, *argv]) == 0
    assert prepared == [r if isinstance(r, str) else r["name"] for r in _APPLICABLE_REQUESTS]
    # The prepared runs stay out of the report's echo of the config.
    assert json.loads(out.read_text())["config_echo"]["bounds"] == _APPLICABLE_REQUESTS


def _library_setup(name):
    cfg = resolve_config(yaml.safe_load(Path(demo_config_path(name)).read_text()))
    opt_cfg = OptimizerConfig(**cfg["optimizer"])

    def fresh_mgf():
        return ensembles.MgfModel(**cfg["mgf"], seed=cfg["simulation"]["seed"])

    return cfg, build_model(cfg["ensemble"]), fresh_mgf, opt_cfg


@pytest.mark.parametrize("name", demo_config_names())
def test_evaluate_bounds_takes_a_config_bound_list(name):
    """A config's bound list as it stands gives what validate_requests'
    prepared requests give, with a fresh mgf model of the same seed."""
    cfg, model, fresh_mgf, opt_cfg = _library_setup(name)
    grid = cfg["eps_grid"]
    got = cli.evaluate_bounds(cfg["bounds"], model, fresh_mgf(), grid, opt_cfg)
    mgf = fresh_mgf()
    prepared = cli.validate_requests(cfg["bounds"], model, mgf, grid, opt_cfg)
    want = cli.evaluate_bounds(prepared, model, mgf, grid, opt_cfg)
    assert list(got) == list(want)
    for bound in want:
        for field in ("raw_value", "theta_star"):
            # theta_star is None for a bound without one.
            values = [
                np.array([getattr(r, field) for r in rows], dtype=float)
                for rows in (got[bound], want[bound])
            ]
            np.testing.assert_array_equal(values[0].view(np.uint64), values[1].view(np.uint64))


@pytest.mark.parametrize(
    "bounds",
    [[{"name": "no_such_bound"}], [{"name": "master", "p": 1.0}], ["master", "master"],
     ["master", "series_sum"]],
    ids=["unknown", "unknown-key", "twice", "inapplicable"],
)
def test_evaluate_bounds_refuses_a_malformed_bound_list(bounds):
    # series_sum needs a power envelope, which a Bernoulli law has not.
    cfg, model, fresh_mgf, opt_cfg = _library_setup("bernoulli_diagonal")
    with pytest.raises(ConfigError):
        cli.evaluate_bounds(bounds, model, fresh_mgf(), cfg["eps_grid"], opt_cfg)


@pytest.mark.parametrize(
    "ensemble, bound, function, calls",
    [
        (_TEN_BERNOULLI, "negative_moment", "source_means", 1),
        (_TEN_BERNOULLI, "chernoff_sum", "source_means", 1),
        (_TEN_BERNOULLI, "chernoff_product", "_source_mean", 1),
        (FAST_EXP_CONFIG["ensemble"], "series_sum", "_inverse_power", 1),
        (FAST_EXP_CONFIG["ensemble"], "series_product", "_inverse_power", 1),
    ],
)
def test_closed_form_computes_its_constants_once_per_grid(
    tmp_path, capsys, monkeypatch, ensemble, bound, function, calls
):
    """The eps-independent constants of a closed form (the means, or one
    matrix power per distinct source) are computed once for the whole
    grid."""
    counted = []
    real = getattr(cli.bd, function)

    def counting(*args):
        counted.append(function)
        return real(*args)

    monkeypatch.setattr(cli.bd, function, counting)
    grid = {"start": 0.01, "stop": 0.1, "count": 10}
    cfg = dict(FAST_EXP_CONFIG, ensemble=ensemble, bounds=[bound], eps_grid=grid)
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.count(f",{bound},") == 10
    assert len(counted) == calls


@pytest.mark.parametrize("method", ["uniform_bound", "mean"])
@pytest.mark.parametrize("bound", ["chernoff_sum", "chernoff_product"])
def test_chernoff_asks_each_distinct_source_once(tmp_path, capsys, monkeypatch, bound, method):
    """Ten positions of one Bernoulli source are one distinct object: its
    almost-sure bound and its mean are computed once."""
    calls = []
    real = getattr(ensembles.ScaledFixed, method)

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ensembles.ScaledFixed, method, counting)
    cfg = dict(FAST_EXP_CONFIG, ensemble=_TEN_BERNOULLI, bounds=[bound])
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.count(f",{bound},") == len(FAST_EXP_CONFIG["eps_grid"])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name, hermitian, eigvalsh",
    [("bernoulli_diagonal", 6, 6), ("bounded_rank_one", 10, 4), ("exponential_series", 5, 4)],
)
def test_validation_builds_per_distinct_source(capsys, monkeypatch, name, hermitian, eigvalsh):
    """The closed forms take each per-source constant once per distinct
    source and add sums over positions as arrays, not as HermitianMatrix
    additions.  Adding one matrix per position, validation built 31, 29 and
    9 matrices and called eigvalsh 33, 11 and 5 times."""
    counts = {"validating": False, "hermitian": 0, "eigvalsh": 0}
    init, solve, validate = HermitianMatrix.__init__, np.linalg.eigvalsh, cli.validate_requests

    def counting_init(matrix, entries):
        counts["hermitian"] += counts["validating"]
        init(matrix, entries)

    def counting_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += counts["validating"]
        return solve(*args, **kwargs)

    def validating(*args):
        counts["validating"] = True
        try:
            return validate(*args)
        finally:
            counts["validating"] = False

    monkeypatch.setattr(HermitianMatrix, "__init__", counting_init)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(cli, "validate_requests", validating)
    assert main(["bound", "--config", demo_config_path(name)]) == 0
    capsys.readouterr()
    assert (counts["hermitian"], counts["eigvalsh"]) == (hermitian, eigvalsh)


def test_g_theta_eta_is_computed_once(capsys, monkeypatch):
    """g_theta sums its dominators and takes the eigenvalues of the sum
    once for the whole eps grid."""
    dominator_sums, etas = [], []
    real_sum, real_eigvalsh = cli.bd._position_sum, np.linalg.eigvalsh

    def position_sum(terms, what=""):
        total = real_sum(terms, what)
        if what == "the sum of the dominators":
            dominator_sums.append(total)
        return total

    def eigvalsh(a, *args, **kwargs):
        w = real_eigvalsh(a, *args, **kwargs)
        if any(a is total for total in dominator_sums):
            etas.append(w.tolist())
        return w

    monkeypatch.setattr(cli.bd, "_position_sum", position_sum)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert main(["bound", "--config", demo_config_path("bernoulli_diagonal")]) == 0
    assert capsys.readouterr().out.count(",g_theta,") == 10
    assert len(dominator_sums) == 1
    assert etas == [[5.0]]


def test_bound_decomposes_each_scaled_fixed_matrix_once(capsys, monkeypatch):
    """master's analytic mgf and both series bounds read the one cached
    spectrum of the exponential_series matrix, which is decomposed once."""
    calls = []
    real = linalg.spectral_decompose

    def counting(a):
        calls.append(a)
        return real(a)

    for mod in (cli.bd, ensembles, linalg):
        monkeypatch.setattr(mod, "spectral_decompose", counting, raising=False)
    assert main(["bound", "--config", demo_config_path("exponential_series")]) == 0
    assert capsys.readouterr().out.count(",series_product,") == 10
    assert len(calls) == 1


class TestOptimizerOverrides:
    def test_flags_reach_the_echo_and_run(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(
            [
                "bound",
                "--config",
                write_config(tmp_path, FAST_EXP_CONFIG),
                "--theta-min",
                "1e-4",
                "--theta-max",
                "1e4",
                "--coarse-points",
                "80",
                "--csv",
                str(tmp_path / "b.csv"),
                "--json",
                str(out),
            ]
        )
        assert code == 0
        echo = json.loads(out.read_text())["config_echo"]["optimizer"]
        assert echo["theta_min"] == 1e-4
        assert echo["theta_max"] == 1e4
        assert echo["coarse_points"] == 80

    def test_bad_override_exits_2(self, tmp_path):
        code = main(
            [
                "bound",
                "--config",
                write_config(tmp_path, FAST_EXP_CONFIG),
                "--theta-min",
                "10.0",
                "--theta-max",
                "1.0",
            ]
        )
        assert code == 2


class TestDemoCommand:
    def test_runs_all_bundles_and_reports(self, tmp_path, capsys):
        code = main(
            [
                "demo",
                "--outdir",
                str(tmp_path / "reports"),
                "--samples",
                "4000",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip().split("\n")
        assert len(printed) == 4
        assert all(line.endswith("dominated") for line in printed)
        for name in demo_config_names():
            assert (tmp_path / "reports" / f"{name}.json").exists()
            assert (tmp_path / "reports" / f"{name}.csv").exists()


    def test_outdir_naming_a_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("", encoding="utf-8")
        assert main(["demo", "--outdir", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: cannot write {str(target)!r}: ")
        assert err.count("\n") == 1


class TestDemoConfigs:
    def test_all_four_present(self):
        assert demo_config_names() == [
            "bernoulli_diagonal",
            "bounded_rank_one",
            "exponential_series",
            "wishart_empirical_mgf",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            demo_config_path("nope")

    def test_demo_configs_build(self):
        for name in demo_config_names():
            raw = yaml.safe_load(open(demo_config_path(name), encoding="utf-8"))
            cfg = resolve_config(raw)
            model = build_model(cfg["ensemble"])
            assert model.size >= 1
            assert len(cfg["eps_grid"]) == 10
