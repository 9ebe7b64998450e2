"""Top-level acceptance criteria.

Each test enforces one criterion at its stated tolerance and runtime
budget; the terminal summary prints one PASS/FAIL line per criterion.
Absolute benchmark numbers are out of reach without hosted models, so
acceptance is property-based plus deterministic end-to-end fixtures.
"""

from __future__ import annotations

import math
import random
import string
import time
from contextlib import contextmanager

import pytest

from coderag.clients import EchoGenerator, OverlapPicker, StubEmbedder, StubProbe
from coderag.config import RunConfig
from coderag.dense import build_dense_index, dense_retrieve
from coderag.distill import build_distillation_data
from coderag.evaluation import edit_similarity, levenshtein
from coderag.kb import build_knowledge_base
from coderag.pipeline import CompletionTask, PipelineClients, RepoIndex, complete
from coderag.querybuild import chunk_file, construct_query, probe_prompt
from coderag.rerank import analytic_call_bound, make_windows
from coderag.retrieve import RetrievalPath
from coderag.sparse import build_sparse_index, sparse_retrieve
from coderag.store import load_knowledge_base, save_knowledge_base

from .conftest import MINI_PREFIX, REPO10_INVENTORY
from .test_dataflow import KB as DATAFLOW_KB
from .test_dataflow import ORACLE_TABLE
from .test_distill import ArgmaxPicker, UniformPicker, exact_consensus_probability, snippets
from .levenshtein_oracle import dp_levenshtein
from .test_querybuild import MapProbe
from .test_rerank import OrderPicker
from .test_dense import oracle_rank
from .test_sparse import kb_from_texts, oracle_retrieve, random_corpus, VOCAB

from coderag.dataflow import build_dataflow_graph, dataflow_retrieve


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion exceeded its {seconds}s budget: {elapsed:.2f}s"


@pytest.mark.acceptance("metric oracle suite")
def test_metric_oracle_suite():
    with budget(5.0):
        rng = random.Random(20240601)
        alphabet = string.ascii_letters + string.digits + " _()."
        pairs = []
        for _ in range(1000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
            pairs.append((a, b))
        for a, b in pairs:
            assert levenshtein(a, b) == dp_levenshtein(a, b)

        assert edit_similarity("kitten", "sitting") == pytest.approx(1 - 3 / 7, abs=1e-9)

        for a, b in pairs[:200]:
            d_ab = levenshtein(a, b)
            assert d_ab == levenshtein(b, a)  # symmetry
            assert (d_ab == 0) == (a == b)  # identity of indiscernibles
            assert 0.0 <= edit_similarity(a, b) <= 1.0  # bounds
        for (a, b), (_, c) in zip(pairs[:100], pairs[100:200]):
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@pytest.mark.acceptance("knowledge-base extraction")
def test_kb_extraction_inventory(repo10, tmp_path):
    with budget(2.0):
        kb = build_knowledge_base(repo10)
        extracted = sorted(
            (i.kind.value, i.qualified_name, i.line_span, i.file_path) for i in kb.items
        )
        expected = sorted(
            (kind, name, span, path) for kind, name, span, path in REPO10_INVENTORY
        )
        assert extracted == expected
        assert [e.file_path for e in kb.parse_errors] == ["pkg/broken.py"]

        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        save_knowledge_base(kb, out1)
        save_knowledge_base(load_knowledge_base(out1), out2)
        assert (out1 / "kb.jsonl").read_bytes() == (out2 / "kb.jsonl").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


@pytest.mark.acceptance("retrieval equivalence (sparse and dense oracles)")
def test_retrieval_equivalence():
    with budget(10.0):
        rng = random.Random(777)
        embedder = StubEmbedder(dim=16, seed=5)
        for _ in range(100):
            texts = random_corpus(rng, max_items=50)
            query = " ".join(rng.choices(VOCAB + ["nohit"], k=rng.randint(1, 6)))
            j = rng.randint(1, 12)
            kb = kb_from_texts(texts)

            sparse = build_sparse_index(kb)
            assert sparse_retrieve(sparse, query, j) == oracle_retrieve(texts, query, j)

            dense = build_dense_index(kb, embedder)
            hits = dense_retrieve(dense, query, embedder, j)
            expected = oracle_rank(dense, embedder.embed(query), j)
            assert [h[0] for h in hits] == [e[0] for e in expected]


@pytest.mark.acceptance("query construction conformance")
def test_query_construction_conformance():
    with budget(5.0):
        rng = random.Random(4242)
        checked = 0
        while checked < 200:
            n_lines = rng.randint(2, 40)
            f = rng.randint(1, 6)
            cursor = rng.randint(1, n_lines)
            # the unfinished file ends at its cursor line
            text = "\n".join(f"tok{i} = {i}" for i in range(1, cursor + 1))
            *context, target = chunk_file(text, f)
            if not context:
                continue
            g = rng.randint(0, len(context) + 1)
            scores = rng.sample(range(-10_000, 0), k=len(context))  # injective
            table = {probe_prompt(c, target): float(s) for c, s in zip(context, scores)}
            query = construct_query(text, f=f, m=4, g=g, probe=MapProbe(table))
            ranked = sorted(
                range(len(context)),
                key=lambda i: (-table[probe_prompt(context[i], target)], i),
            )
            expected = [context[i] for i in sorted(ranked[:g])]
            assert list(query.selected_chunks) == expected
            assert query.target_chunk == target
            assert target not in query.selected_chunks
            checked += 1


@pytest.mark.acceptance("tournament reranking conformance")
def test_rerank_conformance():
    with budget(30.0):
        assert len(make_windows(list(range(31)), 3)) == 15

        rng = random.Random(99)
        for n in range(1, 41):
            for w in (2, 3, 4):
                windows = make_windows(list(range(n)), w)
                for left, right in zip(windows, windows[1:]):
                    assert len(set(left) & set(right)) == 1
                for u in {1, 5, 10, n}:
                    bound = analytic_call_bound(n, u, w)
                    for _ in range(100):
                        from coderag.rerank import heap_rerank

                        ids = [f"i{k:02d}" for k in range(n)]
                        texts = [f"s{k:02d}" for k in range(n)]
                        order = dict(zip(texts, rng.sample(range(10_000), n)))
                        picker = OrderPicker(order)
                        outcome = heap_rerank(ids, texts, "q", picker, u=u, w=w)
                        expected = sorted(ids, key=lambda i: -order[texts[ids.index(i)]])
                        assert outcome.ordered_items == expected[: min(u, n)]
                        assert outcome.picker_calls <= bound

        assert analytic_call_bound(31, 10, 3) <= 60


@pytest.mark.acceptance("distillation data conformance")
def test_distillation_conformance():
    with budget(60.0):
        # deterministic picker: sample count equals the loop arithmetic and
        # every record re-verifies the >= 4/5 rule
        sizes = (2, 3, 4, 5, 6, 7)
        scores = {f"text s{i}": float(-i) for i in range(12)}
        pairs = [(f"q{k}", snippets(12)) for k in range(5)]
        short_pairs = [(f"p{k}", snippets(4)) for k in range(2)]
        samples = build_distillation_data(
            pairs + short_pairs, ArgmaxPicker(scores | {f"text s{i}": 0.0 for i in range(4)}),
            sizes, rng_seed=11,
        )
        capped = sum(1 for _ in short_pairs for size in sizes if size > 4) * 3
        expected_count = (len(pairs) + len(short_pairs)) * len(sizes) * 3 - capped
        assert len(samples) == expected_count
        assert all(s.verify() for s in samples)

        # uniform picker: emission rate within 3 sigma of the exact
        # multinomial probability, over >= 2000 subset trials
        p = exact_consensus_probability(5, 5, 4)
        stat_pairs = [(f"u{k}", snippets(6, tag=f"u{k}_")) for k in range(700)]
        emitted = build_distillation_data(stat_pairs, UniformPicker(seed=2718), (5,), rng_seed=3)
        trials = len(stat_pairs) * 3
        assert trials >= 2000
        rate = len(emitted) / trials
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(rate - p) <= 3 * sigma, (rate, p, 3 * sigma)


@pytest.mark.acceptance("end-to-end completion fixture")
def test_end_to_end_fixture(mini_repo):
    with budget(5.0):
        index = RepoIndex.build(mini_repo, StubEmbedder())
        task = CompletionTask(
            task_id="e2e",
            repo_root=str(mini_repo),
            file_path="main.py",
            prefix=MINI_PREFIX,
            cursor_line=5,
        )
        clients = PipelineClients(StubProbe(), StubEmbedder(), OverlapPicker(), EchoGenerator())

        prompts = []
        for _ in range(3):
            result = complete(task, index, clients)
            prompts.append(result.prompt.encode("utf-8"))

            names = {
                index.kb.get(c.item_id).qualified_name
                for c in result.retrieval_list.candidates
            }
            assert "parse_config" in names
            body_at = result.prompt.find("def parse_config(path):")
            prefix_at = result.prompt.rfind(MINI_PREFIX)
            assert 0 <= body_at < prefix_at  # knowledge above the prefix
            assert EchoGenerator().count_tokens(result.prompt) <= 2048

        assert prompts[0] == prompts[1] == prompts[2]  # byte-identical


@pytest.mark.acceptance("dataflow retrieval fixtures")
def test_dataflow_fixture_table():
    with budget(2.0):
        assert len(ORACLE_TABLE) == 20
        for prefix, expected in ORACLE_TABLE:
            hits = dataflow_retrieve(build_dataflow_graph(prefix), DATAFLOW_KB)
            if expected is None:
                assert hits == [], prefix
            else:
                assert len(hits) == 1, prefix
                assert DATAFLOW_KB.get(hits[0][0]).qualified_name == expected, prefix


@pytest.mark.acceptance("retrieval-path ablation plumbing")
def test_ablation_plumbing(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    clients = PipelineClients(StubProbe(), StubEmbedder(), OverlapPicker(), EchoGenerator())
    # the cursor line has a dataflow hit (module attribute resolves to the
    # load_defaults function) and the earlier line sparse-matches
    # parse_config, so dedup cannot starve any path of provenance
    task = CompletionTask(
        task_id="ablate",
        repo_root=str(mini_repo),
        file_path="main.py",
        prefix="import util\ncfg = parse_config(PATH)\ns = util.load_defaults(",
        cursor_line=3,
    )
    variants = {
        ("sparse",): {RetrievalPath.SPARSE},
        ("dense",): {RetrievalPath.DENSE},
        ("dataflow",): {RetrievalPath.DATAFLOW},
        ("dataflow", "sparse"): {RetrievalPath.DATAFLOW, RetrievalPath.SPARSE},
        ("dataflow", "sparse", "dense"): {
            RetrievalPath.DATAFLOW,
            RetrievalPath.SPARSE,
            RetrievalPath.DENSE,
        },
    }
    for paths, expected in variants.items():
        result = complete(task, index, clients, RunConfig(paths=paths))
        got = {c.path for c in result.retrieval_list.candidates}
        assert got == expected, paths
