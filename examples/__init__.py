"""Runnable example scenarios (see README)."""
