"""Wall-clock and modelled-result benchmark for the ResilientDB simulator.

``python3 perfbench/run.py --workload <name>`` runs one workload as a series
of single-threaded repetition processes and prints every metric by name and
unit; see ``perfbench/README.md``.
"""
