"""Wall-time benchmark of the player, studio and XKMS-service paths.

Run ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; the last line
of standard output is the JSON result.  ``python3 perfbench/selftest.py``
runs every workload at a tiny size and checks the oracle and its
negative controls.
"""
