"""Two-stage visual-token compression engine.

Stage 1 keeps a maximally diverse subset of visual tokens via greedy
k-center expansion seeded from [CLS] attention; stage 2 drops all
remaining visual tokens at the first scheduled decoder layer where both
cross-modal attention ratios fall below a threshold. The package also
ships the transformer FLOPs cost model, the per-step greedy oracle
(`oracle_greedy`, run by ``vtcomp oracle-check``), and a Monte Carlo
verifier for the diversity/redundancy covariance lemma. The exhaustive
k-center referees live in ``tests/oracles.py``.

The interface is the ``vtcomp`` command (``vtcomp.cli``). Code that needs
a piece of the engine imports it from its submodule, e.g.
``from vtcomp.kcenter import greedy_kcenter``.
"""

__version__ = "0.1.0"
