"""The run loop the experiment scripts share: write each experiment's
config.json, run it through the jumpspec command line, and print a summary
of its report.json."""

import argparse
import json
import os

from jumpspec.cli import main as jumpspec_main


def run(doc: str, command: str, out: str, experiments, summary) -> None:
    """Parse --out (default out), run command on each (name, config) of
    experiments in the directory <--out>/name, print summary(name, report)
    after each, and exit with the worst exit code."""
    p = argparse.ArgumentParser(description=doc)
    p.add_argument("--out", default=out)
    outdir = p.parse_args().out
    worst = 0
    for name, cfg in experiments:
        exp_dir = os.path.join(outdir, name)
        os.makedirs(exp_dir, exist_ok=True)
        cfg_path = os.path.join(exp_dir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        worst = max(worst, jumpspec_main([command, "--config", cfg_path, "--out", exp_dir]))
        with open(os.path.join(exp_dir, "report.json")) as fh:
            print(summary(name, json.load(fh)))
    raise SystemExit(worst)
