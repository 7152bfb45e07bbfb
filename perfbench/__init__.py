"""End-to-end and per-layer benchmark of the repro platform (see README.md)."""
