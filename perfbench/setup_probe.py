"""Set-up probe: import combinv from <root>/src, build every LocalSystem, say "ready".

The benchmark times this script from process start to the "ready" line:

    python3 -I perfbench/setup_probe.py <checkout root>
"""

import sys

sys.path.insert(0, sys.argv[1] + "/src")

import combinv  # noqa: E402

for factory in ("kostka_system", "rimhook_system", "refine_system", "weighted_system",
                "obt_system"):
    getattr(combinv, factory)()
sys.stdout.write("ready\n")
sys.stdout.flush()
