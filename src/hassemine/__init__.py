"""Mining partial-order concepts from event sequences.

Every public name is imported from its module on first use (PEP 562), so
`import hassemine` loads none of the submodules and a caller pays only for
the ones it touches.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in the order of __all__
_MODULE_OF = {
    "BoolMatrix": "graphs",
    "Digraph": "graphs",
    "LabelTable": "graphs",
    "is_dag": "graphs",
    "is_quasi_skeleton": "graphs",
    "path_matrix": "graphs",
    "r_set": "graphs",
    "restrict": "graphs",
    "to_dot": "graphs",
    "transitive_closure": "graphs",
    "transitive_reduction": "graphs",
    "MAX_LABELS": "graphs",
    "LABELED_POSET_COUNTS": "enumeration",
    "CategoryRJ": "enumeration",
    "enumerate_category": "enumeration",
    "generalizations": "enumeration",
    "has_morphism": "enumeration",
    "EventSequence": "sequences",
    "SubsetSequence": "sequences",
    "as_subset_sequence": "sequences",
    "common_matrix": "sequences",
    "flattenings": "sequences",
    "gts": "sequences",
    "is_consistent": "sequences",
    "restrict_sequence": "sequences",
    "seq_to_matrix": "sequences",
    "stg": "sequences",
    "ClusterOutput": "mining",
    "RelevanceTable": "mining",
    "hasse_cluster": "mining",
    "relevance_scores": "mining",
    "Dendrogram": "baselines",
    "MatrixPointSet": "baselines",
    "cluster_common_matrices": "baselines",
    "cut": "baselines",
    "dbscan": "baselines",
    "hierarchical": "baselines",
    "l1_distance": "baselines",
    "Episode": "game",
    "GameConfig": "game",
    "V1_EVENTS": "game",
    "V2_EVENTS": "game",
    "corrupt": "game",
    "corrupt_sequences": "game",
    "extract_events": "game",
    "simulate": "game",
    "v1_config": "game",
    "v2_config": "game",
    "SequenceRecords": "io",
    "dump_sequences": "io",
    "episode_row": "io",
    "load_matrix_csv": "io",
    "load_sequences": "io",
    "parse_sequences": "io",
    "save_episodes": "io",
    "save_matrix_csv": "io",
    "save_sequences": "io",
    "AgglomerativeL1": "estimators",
    "HasseClustering": "estimators",
    "MatrixDBSCAN": "estimators",
    "ParamsMixin": "estimators",
    "RelevanceScorer": "estimators",
    "SequenceMatrixEncoder": "estimators",
    "HassemineError": "errors",
    "CyclicInput": "errors",
    "DimensionMismatch": "errors",
    "EmptyInput": "errors",
    "EmptyJ": "errors",
    "EmptyRestriction": "errors",
    "EmptyTerm": "errors",
    "InvalidMode": "errors",
    "InvalidPolicy": "errors",
    "InvalidThreshold": "errors",
    "LabelMismatch": "errors",
    "LabelNotInUniverse": "errors",
    "MissingClass": "errors",
    "NotLayered": "errors",
    "NotSimple": "errors",
    "TooManyLabels": "errors",
    "UnknownLabel": "errors",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
