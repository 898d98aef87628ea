"""Rule modules; importing this package registers every rule.

Each rule lives in its own module named ``rNNN_<rule-name>.py`` and
registers itself via :func:`repro.lint.registry.rule`.  Adding a rule is
adding a module here and importing it below — nothing else to wire.
"""

from repro.lint.rules import (  # noqa: F401
    r001_charge_coverage,
    r002_untagged_charge,
    r003_determinism,
    r004_simulated_race,
    r005_magic_cost_constant,
    r006_observer_side_effect,
    r007_native_parity,
    r009_shard_determinism,
)
