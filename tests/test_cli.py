import json
import hashlib
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from anosovlab.cli import main
from anosovlab import flow as flow_module
from anosovlab import pcf
from anosovlab.errors import (
    ConfigInvalid, DegenerateGradients, ExperimentFailed, NotCodimensionOne,
    TruncationInsufficient,
)
from anosovlab.experiments import (
    ExperimentConfig,
    build_roof,
    load_config,
    run_experiment,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FAST_CONFIGS = [
    ("catalog", "catalog_d3.json"),
    ("livshits", "livshits_planted.json"),
    ("livshits", "livshits_obstructed.json"),
    ("bunching", "bunching_companion3.json"),
]


def run_cli(args):
    return CliRunner().invoke(main, args)


class TestConfigValidation:
    def test_round_trip(self):
        cfg = load_config(CONFIGS / "pcf_companion3.json")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.content_hash() == cfg.content_hash()

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_every_bundled_config_round_trips(self, name):
        # from_dict keeps the fields it checks as given, so load_config needs
        # no round-trip refusal of its own
        payload = json.loads((CONFIGS / name).read_text())
        cfg = load_config(CONFIGS / name)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.to_dict() == {"params": {}, **payload}

    def test_unknown_top_level_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "catalog", "params": {}, "extra": 1}))
        with pytest.raises(ConfigInvalid, match="unknown"):
            load_config(bad)

    def test_unknown_param(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "catalog", "params": {"d": 2, "bogus": 1}}))
        cfg = load_config(bad)
        with pytest.raises(ConfigInvalid, match="unknown params"):
            run_experiment(cfg, tmp_path / "out")

    def test_bad_kind(self, tmp_path):
        bad = tmp_path / "bad.json"
        # a list is no key of the kind table: it is refused, not a TypeError
        for kind in ("nope", ["pcf"]):
            bad.write_text(json.dumps({"kind": kind, "params": {}}))
            with pytest.raises(ConfigInvalid, match="kind"):
                load_config(bad)

    def test_short_translation_rejected_before_pair_search(self, tmp_path, monkeypatch):
        payload = json.loads((CONFIGS / "subbundle_companion3.json").read_text())
        payload["params"]["translation"] = ["1/7", "2/7"]
        cfg = ExperimentConfig.from_dict(payload)

        def no_search(*args, **kwargs):
            raise AssertionError("pair search ran before the translation was checked")

        monkeypatch.setattr(pcf, "find_independent_pairs", no_search)
        with pytest.raises(ConfigInvalid, match="translation has 2 entries"):
            run_experiment(cfg, tmp_path / "out")

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_base_point_length_rejected_before_any_work(self, tmp_path, monkeypatch, length):
        # a one-entry point would broadcast against the unstable frame and run
        payload = json.loads((CONFIGS / "subbundle_companion3.json").read_text())
        payload["params"]["base_point"] = [0.37, 0.61, 0.22, 0.37][:length]
        cfg = ExperimentConfig.from_dict(payload)

        def no_work(*args, **kwargs):
            raise AssertionError("subbundle ran before the base point was checked")

        monkeypatch.setattr(pcf, "translate_flow", no_work)
        monkeypatch.setattr(pcf, "find_independent_pairs", no_work)
        with pytest.raises(
                ConfigInvalid, match=f"base_point has {length} entries, the base map needs 3"):
            run_experiment(cfg, tmp_path / "out")

    def test_degenerate_kappa_fit_rejected(self, tmp_path):
        # kappa_experiment's ValueError, before any orbit work
        payload = json.loads((CONFIGS / "claim44_companion3.json").read_text())
        payload["params"] = {"n_points": 1}
        cfg = ExperimentConfig.from_dict(payload)
        with pytest.raises(ConfigInvalid, match="kappa fit"):
            run_experiment(cfg, tmp_path / "out")

    def test_boolean_seed_rejected(self):
        # bool is an int in Python; true must not pass as seed 1
        with pytest.raises(ConfigInvalid, match="seed"):
            ExperimentConfig.from_dict({"kind": "catalog", "seed": True, "params": {}})

    def test_negative_roof_constant_rejected(self):
        with pytest.raises(ConfigInvalid, match="positive"):
            build_roof({"constant": -1.0}, 2)

    def test_int_amplitude_runs_as_its_float(self, tmp_path):
        # _checked coerces an int where the table asks for a float
        payload = json.loads((CONFIGS / "livshits_planted.json").read_text())
        payload["roof"]["constant"] = 5.0
        digests = []
        for amplitude in (1, 1.0):
            payload["params"]["plant_coboundary"]["amplitude"] = amplitude
            run_experiment(ExperimentConfig.from_dict(payload), tmp_path / repr(amplitude))
            manifest = json.loads((tmp_path / repr(amplitude) / "manifest.json").read_text())
            digests.append(manifest["reports"])
        assert digests[0] == digests[1]
        assert json.loads((tmp_path / "1" / "livshits.json").read_text())["solved"]


class TestCliExitCodes:
    @staticmethod
    def assert_refused(result, out: Path):
        """Exit 2, and no report file left: the out directory is absent or empty."""
        assert result.exit_code == 2
        assert not out.exists() or not any(out.iterdir())

    def test_success_exit_zero(self, tmp_path):
        result = run_cli([
            "catalog", "--config", str(CONFIGS / "catalog_d3.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 0
        assert (tmp_path / "out" / "catalog.csv").exists()

    def test_invalid_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "livshits",
            "matrix": {"entries": [[2, 1], [1, 1]]},
            "roof": {"constant": -1.0},
            "params": {"trunc": 4},
        }))
        result = run_cli([
            "livshits", "--config", str(bad), "--out", str(tmp_path / "out"),
        ])
        self.assert_refused(result, tmp_path / "out")

    def test_kind_mismatch_exit_two(self, tmp_path):
        result = run_cli([
            "pcf", "--config", str(CONFIGS / "catalog_d3.json"),
            "--out", str(tmp_path / "out"),
        ])
        self.assert_refused(result, tmp_path / "out")

    def test_module_error_exit_one(self, tmp_path, monkeypatch):
        # a pair search that finds no two independent gradients
        def starved(*args, **kwargs):
            raise DegenerateGradients("no independent pair within the budget")

        monkeypatch.setattr(pcf, "find_independent_pairs", starved)
        result = run_cli([
            "subbundle", "--config", str(CONFIGS / "subbundle_companion3.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert "experiment failed" in result.stderr

    def test_series_cap_is_experiment_failure(self, tmp_path, monkeypatch):
        # a certified series that cannot meet its tail bound is a module
        # error (exit 1), not an invalid config
        monkeypatch.setattr(flow_module, "MAX_TERMS", 1)
        cfg = load_config(CONFIGS / "pcf_companion3.json")
        with pytest.raises(ExperimentFailed, match="tail bound") as info:
            run_experiment(cfg, tmp_path / "out")
        assert isinstance(info.value.__cause__, TruncationInsufficient)

    CODIM2_PARAMS = {
        "pcf": {"n_samples": 2},
        "subbundle": {"base_point": [0.37, 0.61, 0.22, 0.37],
                      "translation": ["1/7", "2/7", "3/7", "0"]},
        "claim44": {},
        "sweep": {"q_period": 4},
        "bunching": {},
    }

    @pytest.mark.parametrize("kind", list(CODIM2_PARAMS))
    def test_two_dimensional_stable_bundle_is_experiment_failure(self, tmp_path, kind):
        # every flow kind refuses dim E^s = 2 where the spectrum is read: a
        # module error, exit 1
        payload = {
            "kind": kind,
            "matrix": {"poly": [1, -3, -3, 3, 1]},
            "roof": {"constant": 1.0, "terms": [{"k": [1, 0, 0, 0], "re": 0.05}]},
            "params": self.CODIM2_PARAMS[kind],
        }
        with pytest.raises(ExperimentFailed) as info:
            run_experiment(ExperimentConfig.from_dict(payload), tmp_path / "out")
        assert isinstance(info.value.__cause__, NotCodimensionOne)
        config = tmp_path / f"{kind}_codim2.json"
        config.write_text(json.dumps(payload))
        result = run_cli([kind, "--config", str(config), "--out", str(tmp_path / "cli")])
        assert result.exit_code == 1

    # The quartic companion(1, 4, -4, -1, 1): its two PCF routes disagree
    # (ROADMAP item 1), so a run misses its acceptance bound and must not
    # write a manifest.
    QUARTIC = {
        "matrix": {"poly": [1, 4, -4, -1, 1]},
        "roof": {"constant": 1.0, "terms": [{"k": [1, 0, 0, 0], "re": 0.05}]},
    }

    def test_quartic_pcf_misses_discrepancy_bound(self, tmp_path):
        # exits 0 with max_discrepancy 1.2e-2 without the bound; item 1
        # (exact corners and a bit budget) flips it to exit 0
        config = tmp_path / "pcf_quartic.json"
        config.write_text(json.dumps(
            {"kind": "pcf", "seed": 0, **self.QUARTIC, "params": {"n_samples": 10}}))
        result = run_cli(["pcf", "--config", str(config), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "max_discrepancy" in result.stderr and "bound 1e-06" in result.stderr
        assert (tmp_path / "out" / "pcf_summary.json").exists()
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_quartic_subbundle_misses_reconstruction_bound(self, tmp_path):
        # exits 0 with reconstruction_sup_error 3.7e-4 without the bound;
        # item 1 flips it to exit 0
        config = tmp_path / "subbundle_quartic.json"
        config.write_text(json.dumps({
            "kind": "subbundle", "seed": 5, **self.QUARTIC,
            "params": {"base_point": [0.37, 0.61, 0.22, 0.37],
                       "translation": ["1/7", "2/7", "3/7", "0"]},
        }))
        result = run_cli(["subbundle", "--config", str(config), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "reconstruction_sup_error" in result.stderr
        assert "bound 0.0001" in result.stderr
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_quartic_claim44_non_conformal_exit_two(self, tmp_path):
        # three distinct unstable moduli: kappa = -log lambda / log xi_max
        # does not describe the remainder, so the config is refused
        config = tmp_path / "claim44_quartic.json"
        config.write_text(json.dumps({"kind": "claim44", **self.QUARTIC, "params": {}}))
        result = run_cli(["claim44", "--config", str(config), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert "conformal" in result.stderr

    def test_unbounded_periodic_enumeration_exit_two(self, tmp_path):
        # n_max 30 on the cat map asks for about 3.46e12 periodic points
        bad = tmp_path / "huge.json"
        payload = json.loads((CONFIGS / "livshits_obstructed.json").read_text())
        payload["params"]["n_max"] = 30
        bad.write_text(json.dumps(payload))
        start = time.perf_counter()
        result = run_cli([
            "livshits", "--config", str(bad), "--out", str(tmp_path / "out"),
        ])
        self.assert_refused(result, tmp_path / "out")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name, params", [
        ("bunching_companion3.json", {"t_multiples": []}),
        ("bunching_companion3.json", {"t_multiples": [None]}),
        ("subbundle_companion3.json", {"translation": [None]}),
        ("subbundle_companion3.json", {"base_point": [[0.37], 0.61, 0.22]}),
        ("livshits_planted.json", {"plant_coboundary": {"amplitude": 0.05}}),
    ])
    def test_malformed_nested_param_exit_two(self, tmp_path, name, params):
        payload = json.loads((CONFIGS / name).read_text())
        payload["params"].update(params)
        bad = tmp_path / name
        bad.write_text(json.dumps(payload))
        result = run_cli([payload["kind"], "--config", str(bad), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert result.stderr.startswith("config invalid")

    @pytest.mark.parametrize("name, params", [
        ("pcf_companion3.json", {"n_samples": 0}),
        ("subbundle_companion3.json", {"grid_n": 0}),
    ])
    def test_zero_count_exit_two(self, tmp_path, monkeypatch, name, params):
        # no samples would pass the acceptance check vacuously; a zero grid
        # is refused before the pair search
        def no_search(*args, **kwargs):
            raise AssertionError("pair search ran before the params were checked")

        monkeypatch.setattr(pcf, "find_independent_pairs", no_search)
        payload = json.loads((CONFIGS / name).read_text())
        payload["params"].update(params)
        bad = tmp_path / name
        bad.write_text(json.dumps(payload))
        result = run_cli([payload["kind"], "--config", str(bad), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert "must be at least 1" in result.stderr

    @pytest.mark.parametrize("name, params, message", [
        # subbundle draws dim E^u pairs, the square system its Newton solve needs
        ("subbundle_companion3.json", {"n_pairs": 2}, "unknown params"),
        # a negative bound enumerates nothing and reported count 0
        ("catalog_d3.json", {"coeff_bound": -1}, "coeff_bound must be in [0, 10]"),
        # periodic_points would refuse period 0 without naming the config key
        ("sweep_quartic.json", {"q_period": 0}, "param q_period must be at least 1"),
        # lam^t underflows and xi^(nu t) overflows: NaN once went into bunching.json
        ("bunching_companion3.json", {"t_multiples": [10000]}, "leave the float range"),
        # a later t refuses the run before the first t's report is written
        ("bunching_companion3.json", {"t_multiples": [1, 3000]}, "leave the float range"),
    ])
    def test_refused_param_exit_two(self, tmp_path, name, params, message):
        payload = json.loads((CONFIGS / name).read_text())
        payload["params"].update(params)
        bad = tmp_path / name
        bad.write_text(json.dumps(payload))
        result = run_cli([payload["kind"], "--config", str(bad), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert message in result.stderr

    @pytest.mark.parametrize("params, message", [
        ({"plant_coboundary": {"amplitude": 0.05, "freq": [0, 0]}}, "nonzero amplitude"),
        ({"plant_coboundary": {"amplitude": 0.0, "freq": [1, 0]}}, "nonzero amplitude"),
        # solve_coboundary refuses these after the obstruction report is
        # built, and that report must not be left behind
        ({"trunc": -1}, "trunc must cover"),
        ({"trunc": 0}, "trunc must cover"),
    ])
    def test_vacuous_livshits_exit_two(self, tmp_path, params, message):
        # a plant of frequency or amplitude 0 adds nothing, so the constant
        # roof would pass
        payload = json.loads((CONFIGS / "livshits_planted.json").read_text())
        payload["params"].update(params)
        bad = tmp_path / "livshits.json"
        bad.write_text(json.dumps(payload))
        result = run_cli(["livshits", "--config", str(bad), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert message in result.stderr

    @pytest.mark.parametrize("name, params", [
        # values these keys once refused: a zero displacement, pair budget,
        # direction count or period, a radius or tolerance <= 0, a NaN mean
        ("pcf_companion3.json", {"s_scale": 0.0}),
        ("pcf_companion3.json", {"u_scale": 0}),
        ("subbundle_companion3.json", {"budget": 0}),
        ("subbundle_companion3.json", {"patch_radius": 0.0}),
        ("subbundle_companion3.json", {"patch_radius": -0.008}),
        ("claim44_companion3.json", {"q_period": 0}),
        ("sweep_quartic.json", {"n_directions": 0}),
        ("livshits_planted.json", {"tol": -1.0}),
        ("livshits_planted.json", {"tol": 0.0}),
        ("bunching_companion3.json", {"roof_mean": float("nan")}),
        # the values these keys always had: the constants that replaced them
        ("pcf_companion3.json", {"tol": 1e-8}),
        ("claim44_companion3.json", {"amplitude": 0.1}),
        ("claim44_companion3.json", {"norm_min": 1e-4}),
        ("claim44_companion3.json", {"norm_max": 1e-1}),
        ("sweep_quartic.json", {"amplitudes": [0.01, 0.05, 0.1]}),
    ])
    def test_removed_param_exit_two(self, tmp_path, name, params):
        # keys that no config set were replaced by the library default or a
        # named constant; a config that still sets one is refused by name
        payload = json.loads((CONFIGS / name).read_text())
        payload["params"].update(params)
        bad = tmp_path / name
        bad.write_text(json.dumps(payload))
        result = run_cli([payload["kind"], "--config", str(bad), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert f"unknown params: {list(params)}" in result.stderr

    @pytest.mark.parametrize("name, section, update", [
        ("livshits_obstructed.json", "roof", {"terms": [{"k": [1, 0], "re": float("nan")}]}),
        ("livshits_obstructed.json", "roof", {"constant": float("inf")}),
        ("bunching_companion3.json", "params", {"t_multiples": [float("inf")]}),
        ("livshits_planted.json", "params",
         {"plant_coboundary": {"amplitude": float("nan"), "freq": [1, 0]}}),
    ])
    def test_non_finite_number_exit_two(self, tmp_path, name, section, update):
        # json reads NaN, Infinity and 1e400; a NaN roof once passed as certified
        payload = json.loads((CONFIGS / name).read_text())
        payload[section].update(update)
        bad = tmp_path / name
        bad.write_text(json.dumps(payload))
        result = run_cli([payload["kind"], "--config", str(bad), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert "must be a finite number" in result.stderr

    @pytest.mark.parametrize("name, section, update", [
        ("bunching_companion3.json", "matrix", {"poly": [-1, 0, 1.2, 1]}),
        ("bunching_companion3.json", "matrix", {"poly": [-1, 0, True, 1]}),
        ("livshits_obstructed.json", "matrix", {"entries": [[2.9, 1], [1, True]]}),
        ("livshits_obstructed.json", "matrix", {"entries": [[2, 1], 1]}),
        ("livshits_obstructed.json", "roof", {"terms": [{"k": [1.7, 0], "re": 0.05}]}),
        ("livshits_planted.json", "params",
         {"plant_coboundary": {"amplitude": 0.05, "freq": [1.7, 0]}}),
    ])
    def test_non_integer_integers_exit_two(self, tmp_path, name, section, update):
        # int() once truncated these to a valid matrix, frequency or plant
        payload = json.loads((CONFIGS / name).read_text())
        payload[section].update(update)
        bad = tmp_path / name
        bad.write_text(json.dumps(payload))
        result = run_cli([payload["kind"], "--config", str(bad), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert "must be a non-empty list of integers" in result.stderr

    @pytest.mark.parametrize("section, value, message", [
        ("matrix", {"entries": [[2, 1], [1, 1]], "rows": 2}, "matrix spec allows only"),
        ("matrix", {"poly": [-1, -3, 1], "entries": [[2, 1], [1, 1]]}, "exactly one of"),
        ("matrix", {}, "exactly one of"),
        ("matrix", None, "this experiment needs a matrix spec"),
        ("roof", {"constant": 1.0, "shift": [0, 0]}, "roof spec allows only"),
        ("roof", None, "this experiment needs a roof spec"),
        ("roof", {"constant": 1.0, "terms": [{"k": [1, 0], "re": 0.05, "phase": 0.1}]},
         "unknown roof term fields: ['phase']"),
        ("roof", {"constant": 1.0, "terms": [{"k": [0, 0], "re": 0.5}]}, "use constant"),
        ("params", [8], "params must be an object"),
    ])
    def test_malformed_config_shape_exit_two(self, tmp_path, section, value, message):
        payload = json.loads((CONFIGS / "livshits_obstructed.json").read_text())
        payload[section] = value
        bad = tmp_path / "livshits.json"
        bad.write_text(json.dumps(payload))
        result = run_cli(["livshits", "--config", str(bad), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert message in result.stderr

    def test_non_object_config_exit_two(self, tmp_path):
        bad = tmp_path / "livshits.json"
        bad.write_text(json.dumps([{"kind": "livshits"}]))
        result = run_cli(["livshits", "--config", str(bad), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert "config must be a JSON object" in result.stderr

    def test_non_utf8_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff" + json.dumps({"kind": "pcf"}).encode())
        result = run_cli(["pcf", "--config", str(bad), "--out", str(tmp_path / "out")])
        self.assert_refused(result, tmp_path / "out")
        assert "config invalid: cannot read config:" in result.stderr

    def test_missing_config_exit_two(self, tmp_path):
        result = run_cli([
            "catalog", "--config", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "out"),
        ])
        self.assert_refused(result, tmp_path / "out")


class TestReports:
    def test_catalog_contains_plastic_row(self, tmp_path):
        cfg = load_config(CONFIGS / "catalog_d3.json")
        run_experiment(cfg, tmp_path)
        rows = (tmp_path / "catalog.csv").read_text().strip().splitlines()
        target = [r for r in rows if r.startswith("-1 0 1 1,")]
        assert target and target[0].endswith("True")
        assert ",True," in target[0]  # complex pair flag

    def test_livshits_planted_solves(self, tmp_path):
        cfg = load_config(CONFIGS / "livshits_planted.json")
        run_experiment(cfg, tmp_path)
        payload = json.loads((tmp_path / "livshits.json").read_text())
        assert payload["solved"] is True
        assert payload["residual_sup"] <= 1e-9
        assert payload["spread"] <= 1e-12

    def test_livshits_obstructed_rejects_cleanly(self, tmp_path):
        cfg = load_config(CONFIGS / "livshits_obstructed.json")
        run_experiment(cfg, tmp_path)
        payload = json.loads((tmp_path / "livshits.json").read_text())
        assert payload["solved"] is False
        assert payload["spread"] > 1e-3

    def test_pcf_constant_roof_report(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "kind": "pcf",
            "seed": 11,
            "matrix": {"poly": [-1, 0, 1, 1]},
            "roof": {"constant": 1.0},
            "params": {"n_samples": 20},
        })
        run_experiment(cfg, tmp_path)
        payload = json.loads((tmp_path / "pcf_summary.json").read_text())
        assert payload["max_abs_series"] <= 1e-10

    def test_manifest_hashes_are_complete(self, tmp_path):
        cfg = load_config(CONFIGS / "bunching_companion3.json")
        paths = run_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        listed = {entry["name"] for entry in manifest["reports"]}
        produced = {p.name for p in paths if p.name != "manifest.json"}
        assert listed == produced
        for entry in manifest["reports"]:
            digest = hashlib.sha256((tmp_path / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]
        assert manifest["config_hash"] == cfg.content_hash()


class TestDeterminism:
    @pytest.mark.parametrize("kind,name", FAST_CONFIGS)
    def test_repeat_runs_byte_identical(self, tmp_path, kind, name):
        cfg = load_config(CONFIGS / name)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        _assert_trees_equal(tmp_path / "a", tmp_path / "b")

    def test_worker_count_invariance(self, tmp_path):
        cfg = load_config(CONFIGS / "pcf_companion3.json")
        run_experiment(cfg, tmp_path / "w1", workers=1)
        run_experiment(cfg, tmp_path / "w3", workers=3)
        _assert_trees_equal(tmp_path / "w1", tmp_path / "w3")

    def test_seed_override_changes_samples(self, tmp_path):
        result = run_cli([
            "pcf", "--config", str(CONFIGS / "pcf_companion3.json"),
            "--out", str(tmp_path / "s1"), "--seed", "1",
        ])
        assert result.exit_code == 0
        result = run_cli([
            "pcf", "--config", str(CONFIGS / "pcf_companion3.json"),
            "--out", str(tmp_path / "s2"), "--seed", "2",
        ])
        assert result.exit_code == 0
        a = (tmp_path / "s1" / "samples.csv").read_text()
        b = (tmp_path / "s2" / "samples.csv").read_text()
        assert a != b


def _assert_trees_equal(a: Path, b: Path):
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
