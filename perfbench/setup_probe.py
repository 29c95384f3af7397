"""Fresh-process set-up probe for ``setup_s``.

Imports ancsim from ``ROOT/src`` and builds what every run of the workload
builds before its first period: the config, both plants, the noise source,
the hybrid loop (which discretizes the secondary path at L cells) and the
one-cell discretization of the conventional arm. The caller times the whole
process. Usage: ``python3 perfbench/setup_probe.py ROOT CONFIG``.
"""

import os
import sys

root, config_path = sys.argv[1:3]
sys.path.insert(0, os.path.join(root, "src"))

from ancsim import HybridLoop, SimConfig, discretize_lifted  # noqa: E402

config = SimConfig.from_file(config_path)
secondary = config.secondary()
loop = HybridLoop(secondary, config.primary(), config.make_generator(), config.h, config.L)
discretize_lifted(secondary, config.h, 1)
