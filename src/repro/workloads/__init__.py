"""Workload generation: synthetic request streams and dataset builders.

§6 of the paper evaluates on (a) synthetic uniform workloads over ~1M
160-byte objects and (b) three real-world datasets (EHR heart-disease
records, SmallBank accounts, UCI e-commerce purchases).  The original files
are not redistributable, so :mod:`repro.workloads.datasets` synthesizes
records with the paper's exact schemas and value sizes — the only workload
properties the measured figures depend on.
"""

from repro.workloads.datasets import DATASETS, DatasetSpec, build_dataset
from repro.workloads.synthetic import RequestStream, WorkloadSpec, synthetic_records

__all__ = [
    "WorkloadSpec",
    "RequestStream",
    "synthetic_records",
    "DatasetSpec",
    "DATASETS",
    "build_dataset",
]
