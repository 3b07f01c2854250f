"""Slow, obviously-correct oracles that property tests check ``src/`` against.

Each module keeps a straightforward implementation that ``src/repro``
replaced with a faster one; the property tests assert the two agree
bit for bit.
"""
