"""Shared test setup.  Hypothesis profiles for the property tests:

``repeatable``, loaded by default, is derandomized: every run draws the
same examples, so the suite passes or fails alike on every run.
``random`` draws fresh examples on each run, to search further:
``pytest --hypothesis-profile=random`` (with ``--hypothesis-seed=N`` to
replay one draw).

``local_dual`` is the dual map the tests read through ``reconstruct``."""

import numpy as np
from hypothesis import settings

from grasswig import RankNMap

settings.register_profile("repeatable", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("repeatable")


def local_dual(phi):
    """``psi(P) = I - phi(I - P)`` on rank d - n, an external oracle built
    here, outside the package: reading it cross-checks ``reconstruct``'s own
    complement reading against an independent route."""
    d = phi.ambient_dim
    return RankNMap(d, d - phi.rank, lambda p: np.eye(d) - phi.evaluate(p.complement()).matrix, field=phi.field)
