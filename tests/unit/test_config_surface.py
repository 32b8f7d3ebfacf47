"""The option surface, pinned name by name.

Every independently settable value doubles what tests and benches have
to cover, so a new config field, CLI flag or constructor keyword is a
reviewed edit to one of the lists below — not a default nobody reads.
Removing one is the same edit in the other direction.  A value that
only tests would set is a named constant in ``src/``, not a keyword.
"""

import ast
import dataclasses
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core.pipeline as pipeline_module
import repro.mapreduce
import repro.rdf
import repro.textproc.memo
from repro.cli import build_parser
from repro.core.config import PipelineConfig
from repro.core.pipeline import KnowledgeBaseConstructionPipeline
from repro.entity.discovery import JointEntityResolver
from repro.entity.linking import EntityLinker
from repro.entity.resolution import AttributeResolver
from repro.faults import RetryPolicy
from repro.fusion.accu import Accu
from repro.fusion.confidence_weighted import GeneralizedSums, Investment
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.fusion.multitruth import MultiTruth
from repro.fusion.sharding import ShardStats, fuse_sharded
from repro.mapreduce.engine import JobStats, MapReduceJob
from repro.rdf.backend import StorageBackend
from repro.rdf.store import TripleStore

PIPELINE_CONFIG_FIELDS = {
    # inputs: the world and its generators
    "world", "kb_pair", "querylog", "websites", "webtext",
    # extraction and claim preparation
    "discover_new_entities", "resolve_attributes",
    # fusion
    "fusion_tolerance",
    # fault tolerance
    "retry", "fault_plan", "stage_timeout", "min_sources",
    "checkpoint_dir",
    # storage
    "storage_dir", "memtable_limit",
}

PIPELINE_FLAGS = {
    "-h", "--help", "--seed", "--query-scale", "--discover-entities",
    "--export", "--retries", "--stage-timeout",
    "--min-sources", "--checkpoint-dir", "--resume",
    "--storage-dir", "--memtable-limit", "--apply-delta",
    "--metrics-out", "--trace-out",
}

KEYWORD_ONLY = {
    Accu: {"initial_accuracies", "max_iterations", "tolerance"},
    MultiTruth: {
        "source_weights", "use_confidence", "max_iterations", "tolerance",
    },
    GeneralizedSums: {"max_iterations", "tolerance", "use_confidence"},
    Investment: {"max_iterations", "tolerance", "use_confidence"},
    KnowledgeFusion: {
        "hierarchy", "functional_of", "use_source_correlations",
        "use_extractor_correlations", "use_confidence", "max_iterations",
        "tolerance", "retry", "fault_plan", "metrics",
    },
    EntityLinker: {"brute_floor"},
    JointEntityResolver: {"brute_floor"},
    AttributeResolver: {"stats"},
    MapReduceJob: {"retry", "fault_plan", "metrics"},
    fuse_sharded: {"retry", "fault_plan", "metrics"},
}

# The keyword-only parameters of every other public class constructor
# and public module-level function under src/repro, by dotted name; with
# KEYWORD_ONLY it is the whole keyword surface (what neither lists has
# none).  Most are injected dependencies (metrics, fault plans, retry,
# capacity, paths, seeds) or test seams that put a small input on either
# side of a size-selected path (brute_floor, token_cap, min_support, ...).
SRC_KEYWORD_ONLY = {
    "repro.core.augmentation.augment_kb": {
        "class_of_subject", "new_entities",
    },
    "repro.core.checkpoint.CheckpointStore": {"metrics"},
    "repro.core.quarantine.guard_records": {"plan", "start_index"},
    "repro.core.scenarios.run_copying": {"metrics"},
    "repro.core.scenarios.run_tenants": {
        "metrics", "capacity", "retry", "checkpoint_root",
    },
    "repro.entity.blocking.MinHashLSH": {"num_perm", "bands", "seed"},
    "repro.entity.blocking.SurfaceBlockingIndex": {
        "num_perm", "bands", "seed", "token_cap",
    },
    "repro.errors.BackpressureError": {"reason"},
    "repro.evalx.freshness.freshness_report": {
        "served_epoch", "current_epoch", "served_truth", "current_truth",
    },
    "repro.evalx.metrics.evaluate_fusion": {"items"},
    "repro.evalx.tables.format_ratio": {"digits"},
    "repro.evalx.tables.render_table": {"title"},
    "repro.extract.seeds.build_seed_sets": {"min_support"},
    "repro.fusion.calibration.calibrate_sources": {
        "label_fraction", "max_labels", "seed", "smoothing",
    },
    "repro.fusion.compiled.accu_fuse": {
        "initial_accuracies", "max_iterations", "tolerance", "popularity",
        "name",
    },
    "repro.fusion.compiled.gensums_fuse": {
        "max_iterations", "tolerance", "use_confidence", "name",
    },
    "repro.fusion.compiled.investment_fuse": {
        "max_iterations", "tolerance", "use_confidence", "name",
    },
    "repro.fusion.compiled.multitruth_fuse": {
        "source_weights", "use_confidence", "max_iterations", "tolerance",
        "name",
    },
    "repro.fusion.correlations.CorrelationEstimator": {
        "by", "min_common_items",
    },
    "repro.fusion.functionality.FunctionalityEstimator": {
        "min_observations",
    },
    "repro.fusion.sharding.patch_results": {
        "constrain", "prior", "dropped", "fresh",
    },
    "repro.rdf.segments.SegmentBackend": {
        "memtable_limit", "compact_threshold", "metrics", "fault_plan",
    },
    "repro.serving.query.KBReader": {"metrics"},
    "repro.serving.server.KBServer": {"retry", "metrics", "fault_plan"},
    "repro.serving.stream.EventLog": {"metrics"},
    "repro.serving.tenancy.TenantManager": {
        "metrics", "capacity", "retry", "fault_plans", "checkpoint_root",
        "fault_limit",
    },
    "repro.serving.tenancy.TenantRuntime": {
        "metrics", "capacity", "retry", "fault_plan", "checkpoint_dir",
    },
    "repro.textproc.memo.memoized_pair": {"max_size", "symmetric"},
    "repro.textproc.normalize.is_probable_misspelling": {"normalized"},
    "repro.textproc.patterns.LexicalPattern": {
        "max_slot_tokens", "validators",
    },
    "repro.textproc.patterns.induce_pattern": {"max_slot_tokens"},
    "repro.textproc.similarity.jaro_winkler": {"prefix_scale"},
    "repro.textproc.similarity.levenshtein": {"limit"},
}

DATACLASS_FIELDS = {
    RetryPolicy: {"max_attempts", "backoff_base", "timeout", "sleep"},
    JobStats: {
        "input_records", "map_output_records", "reduce_groups",
        "output_records", "attempts", "retries", "timed_out_tasks",
    },
    ShardStats: {
        "components", "component_claims", "attempts", "retries",
        "timed_out_tasks",
    },
}

MAPREDUCE_EXPORTS = {"JobStats", "MapReduceJob"}

CLI_SUBCOMMANDS = {"pipeline", "drift", "copying", "tenants", "query"}

# Every public method of the storage contract is a read or a mutator,
# and there is one spelling per job: a second one on the contract or on
# the store facade is listed here before it exists.
STORAGE_READS = {
    "iter_claims", "contains_triple", "match", "claims", "claims_for_item",
    "count_for_item", "objects", "subjects", "predicates", "copy",
}
STORAGE_MUTATORS = {
    "add", "add_all", "remove", "flush", "compact", "close",
}
# What a backend may inherit: ``add_all`` defaults to its loop, the
# lifecycle calls to nothing.
STORAGE_DEFAULTS = {"add_all", "flush", "compact", "close"}

# The MapReduce engine runs every task in the calling process; nothing
# under src/ starts a worker of any kind.
WORKER_MODULES = {"concurrent", "multiprocessing", "threading", "subprocess"}

# The per-delta path keeps clear of full collector passes by building
# no container per item (tests/unit/test_collector_budget.py), not by
# freezing, disabling or re-tuning the collector.
COLLECTOR_MODULES = {"gc"}

# A live KB changes one way: a delta published to a KBServer, applied by
# its stream consumer (dedup fence, retry, dead-letter list, versioned
# commit).  No second path hands a delta to the engine.
DELTA_APPLIERS = {"serving/server.py"}


def test_pipeline_config_fields():
    fields = {field.name for field in dataclasses.fields(PipelineConfig)}
    assert fields == PIPELINE_CONFIG_FIELDS


def test_pipeline_cli_flags():
    subparsers = next(
        action for action in build_parser()._actions
        if action.dest == "command"
    )
    assert set(subparsers.choices) == CLI_SUBCOMMANDS
    flags = {
        flag
        for action in subparsers.choices["pipeline"]._actions
        for flag in action.option_strings
    }
    assert flags == PIPELINE_FLAGS


@pytest.mark.parametrize(
    "cls", sorted(KEYWORD_ONLY, key=lambda cls: cls.__name__),
    ids=lambda cls: cls.__name__,
)
def test_constructor_keywords(cls):
    keywords = {
        name
        for name, parameter in inspect.signature(cls).parameters.items()
        if parameter.kind is parameter.KEYWORD_ONLY
    }
    assert keywords == KEYWORD_ONLY[cls]


def _keyword_only_under_src():
    """Dotted name → keyword-only parameters of every public class
    constructor (an ``__init__`` the class defines) and public
    module-level function under ``src/repro`` that has any."""
    package = Path(repro.__file__).parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts).removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                functions = [
                    member for member in node.body
                    if isinstance(member, ast.FunctionDef)
                    and member.name == "__init__"
                ]
            elif isinstance(node, ast.FunctionDef):
                functions = [node]
            else:
                continue
            if node.name.startswith("_"):
                continue
            for function in functions:
                keywords = {arg.arg for arg in function.args.kwonlyargs}
                if keywords:
                    found[f"{module}.{node.name}"] = keywords
    return found


def test_every_keyword_only_parameter_under_src_is_pinned():
    pinned = {
        f"{owner.__module__}.{owner.__qualname__}": keywords
        for owner, keywords in KEYWORD_ONLY.items()
    }
    assert not pinned.keys() & SRC_KEYWORD_ONLY.keys()
    assert _keyword_only_under_src() == pinned | SRC_KEYWORD_ONLY


@pytest.mark.parametrize(
    "cls", sorted(DATACLASS_FIELDS, key=lambda cls: cls.__name__),
    ids=lambda cls: cls.__name__,
)
def test_dataclass_fields(cls):
    fields = {field.name for field in dataclasses.fields(cls)}
    assert fields == DATACLASS_FIELDS[cls]


def test_mapreduce_exports():
    assert set(repro.mapreduce.__all__) == MAPREDUCE_EXPORTS


def _public(cls):
    return {
        name for name, member in vars(cls).items()
        if callable(member) and not name.startswith("_")
    }


def test_storage_backend_surface():
    assert _public(StorageBackend) == STORAGE_READS | STORAGE_MUTATORS
    assert StorageBackend.__abstractmethods__ == (
        (STORAGE_READS | STORAGE_MUTATORS) - STORAGE_DEFAULTS
        | {"__len__"}
    )
    # The store facade delegates all of it (iteration and membership
    # as dunders) and adds nothing: a held copy() is the snapshot.
    assert _public(TripleStore) == STORAGE_MUTATORS | STORAGE_READS - {
        "iter_claims", "contains_triple",
    }
    assert "StoreSnapshot" not in vars(repro.rdf)


def test_the_similarity_cache_is_the_stdlib_one():
    memo = repro.textproc.memo
    assert [
        name for name, member in vars(memo).items()
        if inspect.isclass(member) and member.__module__ == memo.__name__
    ] == []


def test_pipeline_public_methods():
    assert _public(KnowledgeBaseConstructionPipeline) == {"run", "serve"}


# The names benchmarks/e2e/trace.py patches in the namespace of
# repro.core.pipeline: a call site that moves to another module looks
# its name up there and traces as zeros without failing.
TRACED_PIPELINE_GLOBALS = (
    "build_kb_pair", "generate_query_log", "generate_websites",
    "generate_webtext", "combine_kb_outputs", "build_seed_sets",
    "build_value_profiles", "apply_resolution", "evaluate_fusion",
    "augment_kb",
)


def _code_objects(code):
    yield code
    for constant in code.co_consts:
        if inspect.iscode(constant):
            yield from _code_objects(constant)


@pytest.mark.parametrize("name", TRACED_PIPELINE_GLOBALS)
def test_traced_names_are_called_from_the_pipeline_module(name):
    assert name in vars(pipeline_module)
    source = Path(pipeline_module.__file__).read_text()
    module_code = compile(source, pipeline_module.__file__, "exec")
    # Function bodies only: the module body's own co_names holds the
    # import, which is not a call site.
    function_names = {
        used
        for constant in module_code.co_consts
        if inspect.iscode(constant)
        for code in _code_objects(constant)
        for used in code.co_names
    }
    assert name in function_names


def _imports_under_src():
    """``(path, imported module)`` for every import under ``src/repro``."""
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                yield str(path), module


def _within(module: str, packages) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )


def test_src_does_not_import_tests():
    """Oracles depend on ``src/``, never the other way round."""
    offenders = [
        path for path, module in _imports_under_src()
        if _within(module, {"tests"})
    ]
    assert offenders == []


def test_src_starts_no_worker():
    offenders = [
        (path, module) for path, module in _imports_under_src()
        if _within(module, WORKER_MODULES)
    ]
    assert offenders == []


def test_src_leaves_the_collector_alone():
    offenders = [
        (path, module) for path, module in _imports_under_src()
        if _within(module, COLLECTOR_MODULES)
    ]
    assert offenders == []


def test_only_the_server_applies_deltas():
    package = Path(repro.__file__).parent
    callers = {
        path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "apply_delta"
    }
    assert callers == DELTA_APPLIERS


def _is_the_engines_fusion(node) -> bool:
    """``self.fusion``, or the local ``fusion`` the engine binds it to."""
    if isinstance(node, ast.Name):
        return node.id == "fusion"
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "fusion"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def test_the_engine_fuses_through_public_steps_only():
    """The incremental engine runs the steps that define a fuse
    (repro.fusion.knowledge_fusion) and keeps no copy of them: it reads
    no private attribute of its fusion object and writes none."""
    path = Path(repro.__file__).parent / "incremental" / "engine.py"
    tree = ast.parse(path.read_text())
    offenders = [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and _is_the_engines_fusion(node.value)
        and (node.attr.startswith("_") or not isinstance(node.ctx, ast.Load))
    ]
    assert offenders == []
    assert "setattr" not in {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }


def test_serving_import_loads_no_worker_machinery():
    """A server process pays for no pool it never starts, and the
    MapReduce engine loads when a sharded fuse first needs it."""
    listing = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.serving.server; print(*sorted(sys.modules))",
        ],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    loaded = [
        module for module in listing
        if _within(module, {"multiprocessing", "concurrent", "repro.mapreduce"})
    ]
    assert loaded == []


# One measuring instrument: speed is measured by benchmarks/e2e (the
# driver contract in BENCHMARK.json); what is left beside it reproduces
# the paper's tables, figure, algorithm and Sec. 3.2 commitments under
# pytest-benchmark.  A second instrument — a script with its own
# argument parser, timing loop and BENCH_*.json — is a reviewed edit
# to this list.
PAPER_BENCHES = {
    "bench_table1.py", "bench_table2.py", "bench_table3.py",
    "bench_figure1_pipeline.py", "bench_dom_extraction.py",
    "bench_fusion_methods.py", "bench_functionality.py",
    "bench_gold_calibration.py", "bench_scalability.py",
    "bench_entity_discovery.py", "bench_ablation_confidence.py",
    "bench_ablation_correlations.py", "bench_ablation_hierarchy.py",
    "bench_ablation_resolution.py",
}


def test_benchmarks_are_the_paper_benches_and_nothing_else():
    benchmarks = Path(__file__).resolve().parents[2] / "benchmarks"
    assert {
        path.name for path in benchmarks.glob("bench_*.py")
    } == PAPER_BENCHES
    for name in sorted(PAPER_BENCHES):
        tree = ast.parse((benchmarks / name).read_text())
        tests = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")
        ]
        assert tests, name
        for test in tests:
            assert "benchmark" in {a.arg for a in test.args.args}, (
                name, test.name,
            )
        imported = {
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
        }
        assert "argparse" not in imported, name
    assert list((benchmarks / "out").glob("BENCH_*.json")) == []


# Said once: a layer is described in one DESIGN.md section (how it
# works is in its module docstring) and demonstrated by one example;
# README.md is the front door and shares no heading with DESIGN.md.  A
# new section or script is a reviewed edit to one of these lists.
EXAMPLES = {
    "quickstart.py", "truth_discovery.py", "dom_wrapper_induction.py",
    "query_stream_mining.py", "ontology_augmentation.py",
    "kb_query_and_export.py", "serving_demo.py",
}
README_SECTIONS = [
    "Install", "Quickstart", "Layers", "Reproducing the paper",
    "Measuring speed", "Tests", "Layout",
]
DESIGN_FRONT_MATTER = [
    "Substitutions (paper resource → what we build → why it preserves "
    "behaviour)",
    "System inventory (every subsystem, built from scratch)",
    "Per-experiment index",
]
# In the order a claim travels through Figure 1.
DESIGN_LAYERS = [
    "Synthetic world and gold standard", "Extraction", "Entity matching",
    "Attribute resolution and confidence", "Fusion", "MapReduce",
    "RDF store", "Incremental re-fusion", "Serving", "Tenancy",
    "Faults, checkpoints and quarantine", "Observability",
    "Pipeline, scenarios and CLI",
]
_REPO = Path(__file__).resolve().parents[2]


def _sections(name: str) -> dict[str, str]:
    """``##`` heading -> body of one top-level markdown file."""
    sections: dict[str, str] = {}
    heading = None
    for line in (_REPO / name).read_text().splitlines():
        if line.startswith("## "):
            heading = line[3:].strip()
            sections[heading] = ""
        elif heading is not None:
            sections[heading] += line + "\n"
    return sections


def test_examples_are_the_seven_walk_throughs():
    assert {
        path.name for path in (_REPO / "examples").iterdir()
        if not path.name.startswith((".", "__"))
    } == EXAMPLES


def test_readme_and_design_describe_each_layer_once():
    readme, design = _sections("README.md"), _sections("DESIGN.md")
    assert list(readme) == README_SECTIONS
    assert list(design) == DESIGN_FRONT_MATTER + DESIGN_LAYERS
    headings = [
        {
            line.lstrip("#").strip()
            for line in (_REPO / name).read_text().splitlines()
            if line.startswith(("## ", "### "))
        }
        for name in ("README.md", "DESIGN.md")
    ]
    assert not headings[0] & headings[1]
    for layer in DESIGN_LAYERS:
        body = design[layer]
        parts = [
            body.find(f"**{part}.**")
            for part in ("Does", "Contract", "Cost", "Where")
        ]
        assert -1 not in parts and parts == sorted(parts), layer
        # Every layer is a row of the inventory and of README's table.
        assert f"| {layer} |" in design[DESIGN_FRONT_MATTER[1]], layer
        assert f"| {layer} |" in readme["Layers"], layer


def _defines(body: list[ast.stmt], names: list[str]) -> bool:
    """Whether ``names`` — a class or function, then what each class
    defines in turn — is defined in ``body``."""
    for name in names:
        found = [
            node for node in body
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
            and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_test_design_cites_is_defined():
    """Each test DESIGN.md cites is there: a ``tests/<path>.py::name``
    in that file, a ``::name`` in the file of the nearest path before
    it, each name at the top level or inside one of its classes (a
    ``::test_…`` after a class names a sibling); found by parsing,
    nothing imported."""
    current, cited, unresolved = None, 0, []
    modules: dict[str, ast.Module] = {}
    for span in re.findall(r"`([^`\n]*)`", (_REPO / "DESIGN.md").read_text()):
        full = re.fullmatch(r"(tests/[\w/]+\.py)((?:::\w+)*)", span)
        if full:
            current, names = full.group(1), full.group(2)
        elif re.fullmatch(r"(?:::\w+)+", span):
            names = span
        else:
            if "::" in span:  # a test named some other way
                unresolved.append(span)
            continue
        assert current is not None, span
        if current not in modules:
            path = _REPO / current
            assert path.is_file(), current
            modules[current] = ast.parse(path.read_text())
        if not names:
            continue
        cited += 1
        module, chain = modules[current], names.split("::")[1:]
        if not _defines(module.body, chain) and not any(
            _defines(node.body, chain)
            for node in module.body
            if isinstance(node, ast.ClassDef)
        ):
            unresolved.append(current + names)
    assert unresolved == []
    assert cited > 100
