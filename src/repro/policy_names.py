"""Names of the serving batching policies.

Kept outside :mod:`repro.serve` so the CLI parser can offer them as
``--scheduler`` choices without importing the serving stack;
:mod:`repro.serve` re-exports them and :class:`~repro.serve.ServeSimulator`
accepts exactly these.
"""

#: CLI-facing policy names in the order they are documented.
SCHEDULER_NAMES = ("fcfs", "sjf", "rr", "priority", "slo")
