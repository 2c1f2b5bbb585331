"""perfbench: end-to-end and per-layer benchmark of the RAE common path
and of recovery.  See README.md; run with ``python3 perfbench/run.py``."""
