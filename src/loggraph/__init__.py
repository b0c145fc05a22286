"""Out-of-core vertex-centric graph engine with per-interval update logs."""

from .csr import Adjacency, AdjacencyView, GraphDir, GraphMeta, load_adjacency, partition_vertices
from .engine import Batch, Engine, EngineConfig, RunResult, VertexProgram, run_app
from .ingest import convert, convert_arrays
from .multilog import MultiLog, RecordFormat
from .pager import PageStore, StoreRegistry
from .sortgroup import SortedLog, plan_fusion

__all__ = [
    "Adjacency",
    "AdjacencyView",
    "Batch",
    "Engine",
    "EngineConfig",
    "GraphDir",
    "GraphMeta",
    "MultiLog",
    "PageStore",
    "RecordFormat",
    "RunResult",
    "SortedLog",
    "StoreRegistry",
    "VertexProgram",
    "convert",
    "convert_arrays",
    "load_adjacency",
    "partition_vertices",
    "plan_fusion",
    "run_app",
]

__version__ = "0.1.0"
