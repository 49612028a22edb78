"""The param tables of `experiments.PARAMS`: refused before any work, and all in use.

Every key of a kind's table is refused when it is left out while required,
set to a string, or set one under its least value, before any runner starts
and without leaving a report. Every key is also set by some bundled config
of its kind or by a config that a benchmark workload generates: a key that
no caller sets is a knob to delete, or it sits on the allowlist below with
the reason it stays.
"""

import copy
import importlib.util
import json

import pytest
from click.testing import CliRunner

from anosovlab import experiments
from anosovlab.cli import main
from anosovlab.errors import ConfigInvalid
from test_callers import ROOT

CONFIGS = {path.name: json.loads(path.read_text())
           for path in sorted((ROOT / "configs").glob("*.json"))}

# table keys kept although no caller sets them, one reason each
ALLOWED = {}


def _keys(table, prefix=()):
    """(path, entry) of every key of a table, nested tables included."""
    for key, entry in table.items():
        yield (*prefix, key), entry
        if isinstance(entry[0], dict):
            yield from _keys(entry[0], (*prefix, key))


def _set_keys(params, prefix=()):
    """The path of every key a params object sets, nested objects included."""
    for key, value in params.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _set_keys(value, (*prefix, key))


def _base(kind):
    """The bundled config of this kind that sets the most params."""
    return max((c for c in CONFIGS.values() if c["kind"] == kind),
               key=lambda c: len(list(_set_keys(c["params"]))))


def _refusals():
    for kind, table in experiments.PARAMS.items():
        for path, (_, default, least) in _keys(table):
            name = ".".join(path)
            if default is experiments.REQUIRED:
                yield pytest.param(kind, path, None, f"missing param {path[-1]}",
                                   id=f"{kind}.{name}-missing")
            yield pytest.param(kind, path, "x", f"param {path[-1]} has wrong type",
                               id=f"{kind}.{name}-string")
            if least is not None:
                yield pytest.param(kind, path, least - 1,
                                   f"param {path[-1]} must be at least {least}",
                                   id=f"{kind}.{name}-under-least")


@pytest.mark.parametrize("kind, path, value, message", _refusals())
def test_table_refuses_before_any_runner(tmp_path, monkeypatch, kind, path, value, message):
    # value None leaves the key out
    def no_runner(*args, **kwargs):
        raise AssertionError("a runner started before the params were checked")

    monkeypatch.setattr(experiments, "_RUNNERS", dict.fromkeys(experiments.KINDS, no_runner))
    payload = copy.deepcopy(_base(kind))
    *outer, key = path
    params = payload["params"]
    for step in outer:
        params = params[step]
    if value is None:
        del params[key]
    else:
        params[key] = value
    config = experiments.ExperimentConfig.from_dict(payload)
    with pytest.raises(ConfigInvalid, match=message):
        experiments.run_experiment(config, tmp_path / "direct")
    assert not (tmp_path / "direct").exists()
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    result = CliRunner().invoke(main, [kind, "--config", str(tmp_path / "bad.json"),
                                       "--out", str(tmp_path / "cli")])
    assert result.exit_code == 2
    assert message in result.stderr
    assert not (tmp_path / "cli").exists()


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _set_by_callers() -> set[tuple]:
    """(kind, path) of each param that a bundled or generated config sets."""
    workloads = _workloads()
    generated = [
        cfg
        for name in workloads.WORKLOADS
        for small in (False, True)
        for cfg, _ in workloads.configs(name, 0, 0, small)
    ]
    return {
        (cfg["kind"], path)
        for cfg in [*CONFIGS.values(), *generated]
        for path in _set_keys(cfg["params"])
    }


def _table_keys():
    for kind, table in experiments.PARAMS.items():
        for path, _ in _keys(table):
            yield f"{kind}.{'.'.join(path)}", (kind, path)


def test_every_param_is_set_by_a_caller():
    set_keys = _set_by_callers()
    unset = [name for name, key in _table_keys() if key not in set_keys and name not in ALLOWED]
    assert unset == []


def test_allowlist_entries_exist_and_are_unset():
    set_keys = _set_by_callers()
    keys = dict(_table_keys())
    assert [name for name in ALLOWED if name not in keys or keys[name] in set_keys] == []
