"""Budget-aware multi-agent orchestration.

Provisions a cost-optimal pool of LLM instances under a hard budget (exact
lexicographic integer program), selects a collaboration topology with an
offline-trained policy network, and executes the workflow with per-call cost
ledgering and hard budget enforcement.
"""

__version__ = "0.1.0"
