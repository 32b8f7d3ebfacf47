"""Shared fixtures: a small deterministic world and derived sources.

The world is session-scoped — all read-only tests share one instance.
Tests that mutate state build their own objects.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.extract.kb import KbExtractor, combine_kb_outputs
from repro.extract.querystream import QueryStreamExtractor
from repro.extract.seeds import build_seed_sets
from repro.synth.kb_snapshots import build_kb_pair
from repro.synth.querylog import QueryLogConfig, generate_query_log
from repro.synth.websites import WebsiteConfig, generate_websites
from repro.synth.webtext import WebTextConfig, generate_webtext
from repro.synth.world import GroundTruthWorld, WorldConfig


REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_python(*args, hash_seed=None, cwd=REPO_ROOT) -> str:
    """Stdout of a child interpreter that can import ``repro`` and
    ``tests``; it has to exit 0.  A child process is how a test chooses
    the hash seed (``PYTHONHASHSEED``) or runs a script as a user does.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    done = subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


SMALL_WORLD_CONFIG = WorldConfig(
    seed=42,
    entities_per_class={
        "Book": 25,
        "Film": 25,
        "Country": 20,
        "University": 20,
        "Hotel": 15,
    },
    universe_sizes={
        "Book": 60,
        "Film": 70,
        "Country": 220,
        "University": 220,
        "Hotel": 120,
    },
    location_countries=6,
    location_regions=3,
    location_cities=4,
)


def smoke_pipeline_config():
    """The full Figure-1 pipeline over the small world with the same
    generator settings the fixtures below use (a ~1 s ``run()``)."""
    from repro.core.pipeline import PipelineConfig

    return PipelineConfig(
        world=SMALL_WORLD_CONFIG,
        querylog=QueryLogConfig(seed=5, scale=0.002),
        websites=WebsiteConfig(seed=9, sites_per_class=2, pages_per_site=10),
        webtext=WebTextConfig(
            seed=15, sources_per_class=2, documents_per_source=8
        ),
    )


@pytest.fixture(scope="session")
def world() -> GroundTruthWorld:
    return GroundTruthWorld(SMALL_WORLD_CONFIG)


@pytest.fixture(scope="session")
def kb_pair(world):
    """(freebase, dbpedia) snapshots calibrated to the small world."""
    return build_kb_pair(world)


@pytest.fixture(scope="session")
def kb_outputs(kb_pair):
    freebase, dbpedia = kb_pair
    return KbExtractor(freebase).extract(), KbExtractor(dbpedia).extract()


@pytest.fixture(scope="session")
def combined_kb_output(kb_outputs):
    return combine_kb_outputs(list(kb_outputs))


@pytest.fixture(scope="session")
def query_log(world):
    return generate_query_log(world, QueryLogConfig(seed=5, scale=0.002))


@pytest.fixture(scope="session")
def query_extraction(world, query_log):
    extractor = QueryStreamExtractor(world.entity_index())
    return extractor.extract(query_log)


@pytest.fixture(scope="session")
def seed_sets(world, combined_kb_output, query_extraction):
    query_output, _stats = query_extraction
    return build_seed_sets(
        [combined_kb_output, query_output], world.classes()
    )


@pytest.fixture(scope="session")
def websites(world):
    return generate_websites(
        world,
        WebsiteConfig(seed=9, sites_per_class=2, pages_per_site=10),
    )


@pytest.fixture(scope="session")
def webtext_documents(world):
    return generate_webtext(
        world,
        WebTextConfig(seed=15, sources_per_class=2, documents_per_source=8),
    )
