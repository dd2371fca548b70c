"""Randomized experiments embedded in tiered priority-queue allocation."""
