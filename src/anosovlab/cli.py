"""Command-line entry point: one subcommand per experiment kind."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click

from .errors import ConfigInvalid, ExperimentFailed
from .experiments import KINDS, load_config, run_experiment


@click.group()
def main():
    """Numerical experiments on suspension flows over toral automorphisms."""


def _execute(kind: str, config_path: str, out: str, seed: int | None):
    try:
        cfg = load_config(Path(config_path))
        if cfg.kind != kind:
            raise ConfigInvalid(
                f"config kind {cfg.kind!r} does not match subcommand {kind!r}"
            )
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=seed)
        paths = run_experiment(cfg, Path(out))
    except ConfigInvalid as err:
        click.echo(f"config invalid: {err}", err=True)
        sys.exit(2)
    except ExperimentFailed as err:
        click.echo(f"experiment failed: {err}", err=True)
        sys.exit(1)
    for p in paths:
        click.echo(str(p))
    sys.exit(0)


def _register(kind: str):
    @main.command(name=kind, help=f"Run a {kind} experiment from a config file.")
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=False), help="JSON experiment config")
    @click.option("--out", default="out", show_default=True,
                  type=click.Path(), help="report output directory")
    @click.option("--seed", default=None, type=click.IntRange(0, 2**64 - 1),
                  help="override the config seed")
    def _cmd(config_path: str, out: str, seed: int | None, _kind=kind):
        _execute(_kind, config_path, out, seed)

    return _cmd


for _kind in KINDS:
    _register(_kind)


if __name__ == "__main__":
    main()
