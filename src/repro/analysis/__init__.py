"""mvelint — static checking of MVEDSUA's programmer-written artifacts.

The paper's availability story rests on two artifacts humans write by
hand: rewrite rules (Figures 4–5) and DSU state transformers (§6.2),
and its fault experiments show these are exactly where errors creep in.
This package finds those errors *before* deploy instead of as runtime
divergences or corrupted heaps:

* :mod:`repro.analysis.rules_lint` — shadowed/unreachable rules,
  conflicting overlaps, dead directions, pinned fds (MVE1xx);
* :mod:`repro.analysis.coverage` — version-vocabulary and response-text
  deltas with no covering rule (MVE2xx);
* :mod:`repro.analysis.transform_audit` — key drops, type changes,
  input aliasing, non-determinism in state transformers (MVE3xx);
* :mod:`repro.analysis.paths` — missing transformers/rule sets and
  unreachable versions in the update graph (MVE4xx);
* :mod:`repro.analysis.trace_lint` — suppressing rules with no
  forensic trace tag (MVE5xx);
* :mod:`repro.analysis.specs` — the catalog's declared specs, each
  checked by its own validators: fault plans referencing unknown
  injection sites, illegal fault kinds, or malformed triggers (MVE6xx);
  fleet topologies whose upgrade waves are wider than the replication
  factor, or malformed shard / replica / wave counts (MVE7xx); load
  specs that would measure nothing (MVE10xx);
* :mod:`repro.analysis.prover` — the symbolic divergence prover:
  exhaustive exploration of the cross-version protocol state space with
  executable counterexample witnesses and ``repro-proof/1``
  certificates (MVE8xx, over :mod:`repro.analysis.effects`,
  :mod:`repro.analysis.state_space`, :mod:`repro.analysis.witness`).

Run it via ``python -m repro lint [--format human|json|sarif]
[--app APP] [--prove]`` or ``python -m repro prove APP``; see
``docs/linting.md`` for the finding codes, exit-code contract, and CI
gating.
"""

from repro.apps import AppConfig, default_catalog, load_catalog
from repro.analysis.coverage import check_coverage
from repro.analysis.findings import (Finding, LintReport, RULE_METADATA,
                                     Severity)
from repro.analysis.paths import audit_paths
from repro.analysis.prover import ProveResult, certificate_json, prove_app
from repro.analysis.rules_lint import lint_rules
from repro.analysis.sarif import report_to_sarif, sarif_json
from repro.analysis.specs import lint_spec, lint_specs
from repro.analysis.transform_audit import audit_transforms, seeded_heap
from repro.analysis.witness import Witness, compile_witness, replay_witness
from repro.analysis.cli import run_app, run_catalog

__all__ = [
    "AppConfig",
    "Finding",
    "LintReport",
    "ProveResult",
    "RULE_METADATA",
    "Severity",
    "Witness",
    "certificate_json",
    "compile_witness",
    "prove_app",
    "replay_witness",
    "report_to_sarif",
    "sarif_json",
    "audit_paths",
    "audit_transforms",
    "check_coverage",
    "default_catalog",
    "lint_rules",
    "lint_spec",
    "lint_specs",
    "load_catalog",
    "run_app",
    "run_catalog",
    "seeded_heap",
]
