"""repro — reproduction of "Classifying Malware Represented as Control
Flow Graphs using Deep Graph Convolutional Neural Network" (DSN 2019).

Public API tour:

* :mod:`repro.asm` — assembly parsing into a columnar program.
* :mod:`repro.cfg` — control-flow-graph construction (Algorithms 1-2).
* :mod:`repro.features` — Table I attributes and the ACFG abstraction.
* :mod:`repro.nn` — the from-scratch autograd/NN engine.
* :mod:`repro.core` — DGCNN variants and the :class:`~repro.core.Magic`
  end-to-end system.
* :mod:`repro.datasets` — synthetic MSKCFG/YANCFG corpora.
* :mod:`repro.train` — trainer, cross validation, Table II grid search.
* :mod:`repro.baselines` — comparator classifiers for Table IV/Figure 11.
"""

from repro.core.magic import Magic
from repro.exceptions import MagicError

__version__ = "1.0.0"

__all__ = ["Magic", "MagicError", "__version__"]
