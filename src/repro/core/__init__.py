"""The paper's contribution: Learned Observation Assertions (LOA) / Fixy.

Subpackage layout:

- :mod:`repro.core.kde` — distribution primitives (KDE, Histogram) used
  as learned feature distributions.
- :mod:`repro.core.schema` — canonical observation schema.
- :mod:`repro.core.features` — DataFrame feature transforms; names the
  learned features.
- :mod:`repro.core.distributions` — offline distribution learning.
- :mod:`repro.core.scoring` — online scoring + ranking dataflow.
- :mod:`repro.core.factor_graph` — reference factor-graph semantics and
  the AOFs that the scoring dataflow and the DSL share.
- :mod:`repro.core.dsl` — user-facing LOA API from the paper's §3.
"""
