"""Hypothesis profiles for the property tests.

``repeatable``, loaded by default, is derandomized: every run draws the
same examples, so the suite passes or fails alike on every run.
``random`` draws fresh examples on each run, to search further:
``pytest --hypothesis-profile=random`` (with ``--hypothesis-seed=N`` to
replay one draw)."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("repeatable")
