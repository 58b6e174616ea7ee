"""Set-up as a user's fresh interpreter does it, timed by ``run.py``.

Imports orbitcoh, makes the workload inputs and returns from one warm-up
call, then prints ``ready``.  Usage: ``setup_probe.py <workload> <seed>``.
"""

import os
import sys

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
    workloads.warm_up()
    print("ready", flush=True)
