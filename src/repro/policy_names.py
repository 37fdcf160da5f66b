"""Names of the serving batching policies.

Kept outside :mod:`repro.serve` so the CLI parser can offer them as
``--scheduler`` choices without importing the serving stack;
:data:`repro.serve.scheduler.SCHEDULER_NAMES` re-exports them.
"""

#: CLI-facing policy names in the order they are documented.
SCHEDULER_NAMES = ("fcfs", "sjf", "rr", "priority", "slo")
