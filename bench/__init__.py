"""End-to-end and per-layer benchmark of balancedq; run ``python3 bench/run.py``."""
