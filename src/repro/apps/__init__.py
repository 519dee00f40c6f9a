"""Applications built on the information flow analysis (Section 6, Figure 5).

The paper demonstrates Flowistry with two prototypes:

* a **program slicer** (Figure 5a) that highlights the lines relevant to a
  selected variable and can fade/remove the rest — :mod:`repro.apps.slicer`,
* an **IFC checker** (Figure 5b) that flags flows from values marked secure
  to operations marked insecure — :mod:`repro.apps.ifc`.

Both are intraprocedural, exactly like the paper's prototypes, and both are
thin layers over :class:`repro.core.engine.FlowEngine`.
"""

from repro.apps.slicer import ProgramSlicer, Slice, SliceDirection
from repro.apps.ifc import IfcChecker, IfcPolicy, IfcViolation, SecurityLabel, render_report

__all__ = [
    "IfcChecker",
    "IfcPolicy",
    "IfcViolation",
    "ProgramSlicer",
    "SecurityLabel",
    "Slice",
    "SliceDirection",
    "render_report",
]
