"""Results serialisation.

The paper's measurement program used the scamper Python module and
produced JSON results, published as a supplement [25].  This package
writes and reads semantically equivalent JSON: one record per probe
with the arrival interface, plus experiment metadata, and a compact
update-log format for the collector data.
"""

from .json_results import (
    dump_experiment,
    dump_experiment_file,
    load_experiment_records,
    load_experiment_records_file,
)
from .updates import dump_update_log, load_update_log

__all__ = [
    "dump_experiment",
    "dump_experiment_file",
    "load_experiment_records",
    "load_experiment_records_file",
    "dump_update_log",
    "load_update_log",
]
