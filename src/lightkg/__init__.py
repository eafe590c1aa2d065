"""lightkg: knowledge-graph extraction with small completion models.

Text goes in as JSONL documents; out comes a property graph whose nodes and
edges carry coexisting contextual attributes, confidence scores derived from
graph structure, and rule-inferred implicit relations, plus an F1 harness to
score the result against gold triples.
"""

from .aggregation import (
    AggregationResult,
    EmptyLabelError,
    NormalizationPolicy,
    aggregate,
    aggregate_triples,
    normalize_label,
)
from .client import (
    ChatClient,
    ChatMessage,
    CompletionParams,
    HttpChatClient,
    MockChatClient,
    ModelClientError,
    prompt_fingerprint,
)
from .evaluation import (
    EvalReport,
    GoldSet,
    MatchResult,
    entity_f1,
    evaluate_run,
    load_gold,
    relation_f1,
)
from .extraction import (
    ExtractionResult,
    TextChunk,
    build_extraction_prompt,
    chunk_document,
    extract_chunk,
    parse_extraction_response,
    pattern_extract,
    read_corpus,
)
from .graph import (
    ContextMap,
    ContextTriple,
    Edge,
    Extractor,
    GraphIntegrityError,
    KnowledgeGraph,
    Node,
    Provenance,
    content_equal,
    edge_key,
)
from .pipeline import ConfigError, PipelineConfig, StageError, run_pipeline
from .serialize import GraphParseError, deserialize_graph, serialize_graph
from .topology import (
    InferenceRule,
    SenseSignature,
    TopologyConfig,
    disambiguate_entity,
    discover,
    infer_implicit_relations,
    reinforce_confidence,
)

__version__ = "0.1.0"
