"""The repo benchmark: ``python -m bench`` (see bench/README.md)."""
