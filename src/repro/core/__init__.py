"""The paper's contribution: Learned Observation Assertions (LOA) / Fixy.

Subpackage layout:

- :mod:`repro.core.kde` — the Gaussian KDE every learned feature
  distribution uses.
- :mod:`repro.core.schema` — canonical observation schema.
- :mod:`repro.core.features` — DataFrame feature transforms; names the
  learned features.
- :mod:`repro.core.distributions` — offline distribution learning.
- :mod:`repro.core.scoring` — online scoring + ranking dataflow.
- :mod:`repro.core.factor_graph` — reference factor-graph semantics, the
  AOFs the scoring dataflow shares, and ``compile_scene``, which builds
  the reference graph from the same fitted distributions.
"""
