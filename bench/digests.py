"""Report sha256s of the 8 bundled configs, each run at its own seed.

Usage:
  python3 bench/digests.py --work DIR --out FILE   # write current digests to FILE
  python3 bench/digests.py --work DIR --reference  # overwrite the stored reference

The reference (bench/reference_digests.json) is what every benchmark run
compares against. A change that alters a report digit must say why before
it refreshes the reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_digests.json"


def current_digests(work: Path) -> dict:
    """{config stem: {report name: sha256}} from each run's manifest."""
    sys.path.insert(0, str(ROOT / "src"))
    from anosovlab.experiments import load_config, run_experiment

    out = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        run_dir = work / path.stem
        run_experiment(load_config(path), run_dir, workers=1)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        out[path.stem] = {r["name"]: r["sha256"] for r in manifest["reports"]}
    return out


def compare(reference: dict, current: dict) -> list[str]:
    """One 'match' or 'MISMATCH' line per config in either mapping."""
    lines = []
    for stem in sorted(set(reference) | set(current)):
        want, got = reference.get(stem), current.get(stem)
        if want == got:
            lines.append(f"digest {stem} match")
            continue
        differ = sorted(
            name for name in set(want or {}) | set(got or {})
            if (want or {}).get(name) != (got or {}).get(name)
        )
        lines.append(f"digest {stem} MISMATCH: {', '.join(differ)}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, type=Path,
                        help="scratch directory for the reports (emptied first)")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out", type=Path, help="write the current digests here")
    target.add_argument("--reference", action="store_true",
                        help="overwrite the stored reference digests")
    args = parser.parse_args()
    shutil.rmtree(args.work, ignore_errors=True)
    try:
        digests = current_digests(args.work)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    dest = REFERENCE if args.reference else args.out
    dest.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
