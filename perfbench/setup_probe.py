#!/usr/bin/env python3
"""The set-up a ddgates user pays before any work: import the CLI, load the config,
and, for a sweep, resolve its noise model.

Usage: python3 perfbench/setup_probe.py CONFIG.json RESOLVE(0|1)

perfbench/run.py times this process from start to exit.
"""

import sys

from ddgates import cli

config = cli.load_config(sys.argv[1])
if sys.argv[2] == "1":
    cli.resolve_noise(config)
