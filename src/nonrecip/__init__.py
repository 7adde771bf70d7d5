"""Pulse design and simulation toolkit for a time-modulated
non-reciprocal three-level circulator on a transmon chain."""
