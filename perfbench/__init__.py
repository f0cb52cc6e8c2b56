"""End-to-end and per-layer benchmark of dithersim; `run.py` is the entry point."""
