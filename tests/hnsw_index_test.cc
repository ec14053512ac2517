// HNSW index contract, property-tested against the exact EmbeddingIndex as
// the ground-truth oracle: recall@k on random corpora, tie/duplicate-row
// ordering, tombstoned Removes, bitwise build reproducibility for a fixed
// seed, and (under the `concurrency` ctest label, so TSan covers it in CI)
// queries running concurrently with incremental inserts and removes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/embedding_index.h"
#include "serve/hnsw_index.h"
#include "serve/index_interface.h"
#include "testing.h"

namespace start {
namespace {

using serve::EmbeddingIndex;
using serve::HnswConfig;
using serve::HnswIndex;
using serve::IndexInterface;
using serve::Neighbor;

/// Random rows with a few planted near-duplicate clusters — harder for a
/// graph index than pure noise, closer to embedding corpora.
std::vector<float> RandomRows(common::Rng* rng, int64_t n, int64_t dim) {
  std::vector<float> rows(static_cast<size_t>(n * dim));
  for (auto& v : rows) v = static_cast<float>(rng->Normal());
  for (int64_t i = 1; i < n; i += 17) {  // clusters: jitter an earlier row
    const int64_t base = rng->UniformInt(i);
    for (int64_t d = 0; d < dim; ++d) {
      rows[static_cast<size_t>(i * dim + d)] =
          rows[static_cast<size_t>(base * dim + d)] +
          static_cast<float>(rng->Normal(0.0, 0.05));
    }
  }
  return rows;
}

std::vector<int64_t> SequentialIds(int64_t n) {
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  return ids;
}

double RecallAtK(const IndexInterface& approx, const IndexInterface& oracle,
                 const std::vector<float>& queries, int64_t nq, int64_t dim,
                 int64_t k) {
  double total = 0.0;
  for (int64_t q = 0; q < nq; ++q) {
    const auto truth = oracle.Query(queries.data() + q * dim, dim, k);
    const auto got = approx.Query(queries.data() + q * dim, dim, k);
    EXPECT_TRUE(truth.ok()) << truth.status().ToString();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    std::set<int64_t> truth_ids;
    for (const Neighbor& nb : *truth) truth_ids.insert(nb.id);
    int64_t overlap = 0;
    for (const Neighbor& nb : *got) overlap += truth_ids.count(nb.id);
    total += static_cast<double>(overlap) /
             static_cast<double>(truth->size());
  }
  return total / static_cast<double>(nq);
}

TEST(HnswIndexTest, RecallMeetsGateOnRandomCorpora) {
  // The recall gate of the bench, property-tested: random (n, dim, seed)
  // corpora must reach recall@10 >= 0.95 against the exact oracle.
  common::Rng rng = testutil::TestRng();
  for (int trial = 0; trial < 5; ++trial) {
    const int64_t n = rng.UniformInt(300, 700);
    const int64_t dim = std::vector<int64_t>{8, 16, 32}[static_cast<size_t>(
        rng.UniformInt(3))];
    const std::vector<float> rows = RandomRows(&rng, n, dim);
    EmbeddingIndex exact(dim);
    HnswConfig hc;
    hc.seed = rng.Next();
    HnswIndex hnsw(dim, hc);
    ASSERT_TRUE(exact.AddBatch(SequentialIds(n), rows).ok());
    ASSERT_TRUE(hnsw.AddBatch(SequentialIds(n), rows).ok());
    const int64_t nq = 20;
    std::vector<float> queries(static_cast<size_t>(nq * dim));
    for (auto& v : queries) v = static_cast<float>(rng.Normal());
    const double recall = RecallAtK(hnsw, exact, queries, nq, dim, 10);
    EXPECT_GE(recall, 0.95) << "trial " << trial << " n=" << n
                            << " dim=" << dim;
  }
}

TEST(HnswIndexTest, TiesAndDuplicateRowsRankConsistently) {
  // Duplicate-score rows must come out earliest-inserted-first — the same
  // tie rule as the exact index — and parallel scaled rows (identical after
  // normalization) must tie exactly.
  const int64_t dim = 8;
  common::Rng rng = testutil::TestRng();
  std::vector<float> target(static_cast<size_t>(dim));
  for (auto& v : target) v = static_cast<float>(rng.Normal());
  std::vector<float> doubled(target);
  for (auto& v : doubled) v *= 2.0f;  // same direction => same cosine

  EmbeddingIndex exact(dim);
  HnswIndex hnsw(dim);
  for (IndexInterface* index :
       std::vector<IndexInterface*>{&exact, &hnsw}) {
    ASSERT_TRUE(index->Add(3, target).ok());
    ASSERT_TRUE(index->Add(7, doubled).ok());
    for (int64_t i = 0; i < 40; ++i) {
      std::vector<float> noise(static_cast<size_t>(dim));
      for (auto& v : noise) v = static_cast<float>(rng.Normal());
      ASSERT_TRUE(index->Add(100 + i, noise).ok());
    }
    const auto top = index->Query(target, 2);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), 2u);
    // Both copies score identically; id 3 was inserted first.
    EXPECT_EQ((*top)[0].id, 3);
    EXPECT_EQ((*top)[1].id, 7);
    EXPECT_EQ((*top)[0].score, (*top)[1].score);
  }
}

TEST(HnswIndexTest, RemoveExcludesTombstonedIds) {
  const int64_t n = 200, dim = 16;
  common::Rng rng = testutil::TestRng();
  const std::vector<float> rows = RandomRows(&rng, n, dim);
  HnswIndex hnsw(dim);
  ASSERT_TRUE(hnsw.AddBatch(SequentialIds(n), rows).ok());
  for (int64_t id = 0; id < n; id += 3) {
    ASSERT_TRUE(hnsw.Remove(id).ok());
    EXPECT_FALSE(hnsw.Contains(id));
  }
  EXPECT_FALSE(hnsw.Remove(0).ok());  // already gone
  EXPECT_EQ(hnsw.size(), n - (n + 2) / 3);
  for (int64_t q = 0; q < 10; ++q) {
    std::vector<float> query(static_cast<size_t>(dim));
    for (auto& v : query) v = static_cast<float>(rng.Normal());
    const auto top = hnsw.Query(query, 20);
    ASSERT_TRUE(top.ok());
    for (const Neighbor& nb : *top) {
      EXPECT_NE(nb.id % 3, 0) << "tombstoned id " << nb.id << " surfaced";
    }
  }
  // A removed id can be re-added (fresh slot; the old one stays dead).
  ASSERT_TRUE(hnsw.Add(0, rows.data(), dim).ok());
  EXPECT_TRUE(hnsw.Contains(0));
  const auto top = hnsw.Query(std::vector<float>(rows.begin(),
                                                 rows.begin() + dim),
                              1);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_EQ((*top)[0].id, 0);
}

TEST(HnswIndexTest, FixedSeedBuildIsReproducible) {
  // Two builds over the same insertion order must produce identical graphs:
  // same levels, same neighbor lists, in the same stored order.
  const int64_t n = 400, dim = 16;
  common::Rng rng = testutil::TestRng();
  const std::vector<float> rows = RandomRows(&rng, n, dim);
  HnswConfig hc;
  hc.seed = 1234;
  HnswIndex a(dim, hc), b(dim, hc);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(a.Add(i, rows.data() + i * dim, dim).ok());
    ASSERT_TRUE(b.Add(i, rows.data() + i * dim, dim).ok());
  }
  EXPECT_EQ(a.max_level(), b.max_level());
  for (int64_t id = 0; id < n; ++id) {
    ASSERT_EQ(a.NodeLevel(id), b.NodeLevel(id)) << "id " << id;
    for (int64_t level = 0; level <= a.NodeLevel(id); ++level) {
      EXPECT_EQ(a.GetNeighbors(id, level), b.GetNeighbors(id, level))
          << "id " << id << " level " << level;
    }
  }
  // A different seed must change the graph somewhere (levels are sampled
  // from the seed stream), or the determinism test would be vacuous.
  HnswConfig other = hc;
  other.seed = 4321;
  HnswIndex c(dim, other);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(c.Add(i, rows.data() + i * dim, dim).ok());
  }
  bool any_difference = c.max_level() != a.max_level();
  for (int64_t id = 0; id < n && !any_difference; ++id) {
    any_difference = a.NodeLevel(id) != c.NodeLevel(id) ||
                     a.GetNeighbors(id, 0) != c.GetNeighbors(id, 0);
  }
  EXPECT_TRUE(any_difference);
}

TEST(HnswIndexTest, ValidationMatchesExactIndex) {
  // Both backends speak the same error dialect through the interface.
  EmbeddingIndex exact(4);
  HnswIndex hnsw(4);
  const std::vector<float> zero(4, 0.0f);
  const std::vector<float> row = {1.0f, 0.0f, 0.0f, 0.0f};
  for (IndexInterface* index :
       std::vector<IndexInterface*>{&exact, &hnsw}) {
    EXPECT_EQ(index->Add(1, zero).code(),
              common::StatusCode::kInvalidArgument);
    ASSERT_TRUE(index->Add(1, row).ok());
    EXPECT_EQ(index->Add(1, row).code(),
              common::StatusCode::kAlreadyExists);
    EXPECT_EQ(index->Add(2, row.data(), 3).code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(index->Query(zero, 1).status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(index->Query(row, 0).status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(index->Remove(99).code(), common::StatusCode::kNotFound);
    EXPECT_EQ(index->size(), 1);
  }
  // Empty index: valid query, empty result.
  HnswIndex empty(4);
  const auto result = empty.Query(row, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(HnswIndexTest, EvaluateMostSimilarThroughInterface) {
  // The protocol entry point must work against either backend; with the
  // database containing the query row itself, hr@1 is 1.0 even censored.
  const int64_t n = 120, dim = 12;
  common::Rng rng = testutil::TestRng();
  const std::vector<float> rows = RandomRows(&rng, n, dim);
  EmbeddingIndex exact(dim);
  HnswIndex hnsw(dim);
  ASSERT_TRUE(exact.AddBatch(SequentialIds(n), rows).ok());
  ASSERT_TRUE(hnsw.AddBatch(SequentialIds(n), rows).ok());
  const int64_t nq = 15;
  std::vector<float> queries(rows.begin(), rows.begin() + nq * dim);
  std::vector<int64_t> gt = SequentialIds(nq);
  for (const IndexInterface* index :
       std::vector<const IndexInterface*>{&exact, &hnsw}) {
    const auto metrics = index->EvaluateMostSimilar(queries, nq, gt);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_EQ(metrics->hr_at_1, 1.0);
    EXPECT_EQ(metrics->mean_rank, 1.0);
  }
  const auto missing = hnsw.EvaluateMostSimilar(queries, nq, {gt[0]});
  EXPECT_FALSE(missing.ok());
}

TEST(HnswIndexTest, ChurnQueriesDuringInsertsAndRemoves) {
  // The serving pattern under TSan: readers hammer Query while one writer
  // churns inserts and removes. Results must stay well-formed throughout —
  // live ids only (up to benign remove races), no duplicates, scores in
  // [-1, 1], and the base corpus always reachable.
  const int64_t d = 16;
  HnswIndex index(d);
  common::Rng seed_rng = testutil::TestRng();
  const int64_t base = 128;
  ASSERT_TRUE(
      index.AddBatch(SequentialIds(base), RandomRows(&seed_rng, base, d))
          .ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    common::Rng rng = testutil::TestRng(17);
    for (int round = 0; round < 30; ++round) {
      for (int64_t id = 1000; id < 1015; ++id) {
        std::vector<float> row(static_cast<size_t>(d));
        for (auto& v : row) v = static_cast<float>(rng.Normal());
        ASSERT_TRUE(index.Add(id, row).ok());
      }
      for (int64_t id = 1000; id < 1015; ++id) {
        ASSERT_TRUE(index.Remove(id).ok());
      }
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 3; ++rdr) {
    readers.emplace_back([&, rdr] {
      common::Rng rng = testutil::TestRng(static_cast<uint64_t>(100 + rdr));
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<float> q(static_cast<size_t>(d));
        for (auto& v : q) v = static_cast<float>(rng.Normal());
        const auto result = index.Query(q, 10);
        ASSERT_TRUE(result.ok());
        ASSERT_GE(result->size(), 5u);  // >= base live entries exist
        std::set<int64_t> seen;
        for (const Neighbor& nb : *result) {
          EXPECT_TRUE(seen.insert(nb.id).second) << "duplicate id " << nb.id;
          EXPECT_TRUE(nb.id < base || (nb.id >= 1000 && nb.id < 1015));
          EXPECT_GE(nb.score, -1.0001f);
          EXPECT_LE(nb.score, 1.0001f);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(index.size(), base);
  EXPECT_EQ(index.num_slots(), base + 30 * 15);
}

TEST(HnswIndexTest, DeadFractionAccountsRemovesUnderConcurrentQueries) {
  // Tombstone accounting must stay exact while readers run: after each
  // writer round DeadFraction() == tombstones / slots, it never leaves
  // [0, 1], and it is monotone in the number of removes.
  const int64_t d = 16;
  HnswIndex index(d);
  common::Rng seed_rng = testutil::TestRng(3);
  const int64_t base = 256;
  ASSERT_TRUE(
      index.AddBatch(SequentialIds(base), RandomRows(&seed_rng, base, d))
          .ok());
  EXPECT_EQ(index.DeadFraction(), 0.0);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 2; ++rdr) {
    readers.emplace_back([&, rdr] {
      common::Rng rng = testutil::TestRng(static_cast<uint64_t>(200 + rdr));
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<float> q(static_cast<size_t>(d));
        for (auto& v : q) v = static_cast<float>(rng.Normal());
        ASSERT_TRUE(index.Query(q, 10).ok());
        const double dead = index.DeadFraction();  // racy read: only bounds
        EXPECT_GE(dead, 0.0);
        EXPECT_LE(dead, 1.0);
      }
    });
  }
  double prev = 0.0;
  for (int64_t removed = 0; removed < base / 2; ++removed) {
    ASSERT_TRUE(index.Remove(removed * 2).ok());
    const double dead = index.DeadFraction();
    EXPECT_DOUBLE_EQ(dead, static_cast<double>(removed + 1) /
                               static_cast<double>(base));
    EXPECT_GE(dead, prev);
    prev = dead;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(index.size(), base - base / 2);
  EXPECT_EQ(index.num_slots(), base);
  EXPECT_DOUBLE_EQ(index.DeadFraction(), 0.5);
}

TEST(HnswIndexTest, HeavyChurnStillReturnsKLiveResults) {
  // The latent churn gap: with most slots tombstoned, a fixed candidate
  // pool of ef entries is mostly dead and Query would come back short.
  // The live-ratio ef inflation must keep full-k result sets (and recall)
  // through heavy churn.
  const int64_t n = 400, dim = 16, k = 10;
  common::Rng rng = testutil::TestRng(7);
  const std::vector<float> rows = RandomRows(&rng, n, dim);
  HnswConfig config;
  config.ef_search = 16;  // tight pool: without inflation churn starves it
  HnswIndex hnsw(dim, config);
  EmbeddingIndex exact(dim);
  ASSERT_TRUE(hnsw.AddBatch(SequentialIds(n), rows).ok());
  ASSERT_TRUE(exact.AddBatch(SequentialIds(n), rows).ok());
  // Tombstone 70% of the corpus in both indexes.
  for (int64_t id = 0; id < n; ++id) {
    if (id % 10 < 7) {
      ASSERT_TRUE(hnsw.Remove(id).ok());
      ASSERT_TRUE(exact.Remove(id).ok());
    }
  }
  ASSERT_GT(hnsw.DeadFraction(), 0.65);
  const int64_t nq = 50;
  const std::vector<float> queries = RandomRows(&rng, nq, dim);
  for (int64_t q = 0; q < nq; ++q) {
    const auto got = hnsw.Query(queries.data() + q * dim, dim, k);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), static_cast<size_t>(k))
        << "churn starved the candidate pool at query " << q;
    for (const Neighbor& nb : *got) EXPECT_EQ(nb.id % 10 >= 7, true);
  }
  EXPECT_GE(RecallAtK(hnsw, exact, queries, nq, dim, k), 0.9);
}

TEST(HnswIndexTest, EfFloorKnobRestoresRecallPastSeventyFivePercentDead) {
  // Regression for the hardcoded max(0.25, live_ratio) clamp: at 80%
  // tombstones the default floor caps ef inflation at 4x while 5x is
  // needed, so result sets come back short / recall drops. Lowering
  // min_live_ratio must restore full-k results and oracle-level recall.
  const int64_t n = 500, dim = 16, k = 10;
  common::Rng rng = testutil::TestRng(21);
  const std::vector<float> rows = RandomRows(&rng, n, dim);
  HnswConfig floored;
  floored.ef_search = 16;
  floored.min_live_ratio = 0.05;  // inflation tracks churn up to 95% dead
  HnswIndex relaxed(dim, floored);
  HnswConfig stock;
  stock.ef_search = 16;
  HnswIndex capped(dim, stock);
  EmbeddingIndex exact(dim);
  for (IndexInterface* index :
       std::vector<IndexInterface*>{&relaxed, &capped, &exact}) {
    ASSERT_TRUE(index->AddBatch(SequentialIds(n), rows).ok());
    for (int64_t id = 0; id < n; ++id) {  // 80% tombstones
      if (id % 5 != 0) {
        ASSERT_TRUE(index->Remove(id).ok());
      }
    }
  }
  ASSERT_DOUBLE_EQ(relaxed.DeadFraction(), 0.8);
  const int64_t nq = 50;
  const std::vector<float> queries = RandomRows(&rng, nq, dim);
  for (int64_t q = 0; q < nq; ++q) {
    const auto got = relaxed.Query(queries.data() + q * dim, dim, k);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), static_cast<size_t>(k))
        << "floored index starved at query " << q;
  }
  const double relaxed_recall = RecallAtK(relaxed, exact, queries, nq, dim, k);
  const double capped_recall = RecallAtK(capped, exact, queries, nq, dim, k);
  EXPECT_GE(relaxed_recall, 0.95);
  // The knob must matter: the relaxed floor may not score worse than the
  // stock clamp on the same 80%-dead graph.
  EXPECT_GE(relaxed_recall, capped_recall);
}

TEST(HnswIndexTest, CompactedCopyIsBitwiseEqualToFreshBuildOverLiveRows) {
  const int64_t n = 400, dim = 16;
  common::Rng rng = testutil::TestRng(9);
  const std::vector<float> rows = RandomRows(&rng, n, dim);
  HnswConfig hc;
  hc.seed = 777;
  HnswIndex churned(dim, hc);
  ASSERT_TRUE(churned.AddBatch(SequentialIds(n), rows).ok());
  for (int64_t id = 0; id < n; ++id) {
    if (id % 2 == 0) {
      ASSERT_TRUE(churned.Remove(id).ok());
    }
  }
  ASSERT_DOUBLE_EQ(churned.DeadFraction(), 0.5);

  auto compacted = churned.CompactedCopy();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ((*compacted)->size(), n / 2);
  EXPECT_EQ((*compacted)->num_slots(), n / 2);  // tombstones reclaimed
  EXPECT_DOUBLE_EQ((*compacted)->DeadFraction(), 0.0);

  // Reference: a from-scratch build over only the surviving rows, in the
  // original insertion order. Graphs must match link-for-link.
  HnswIndex fresh(dim, hc);
  for (int64_t id = 1; id < n; id += 2) {
    ASSERT_TRUE(fresh.Add(id, rows.data() + id * dim, dim).ok());
  }
  ASSERT_EQ(fresh.max_level(), (*compacted)->max_level());
  for (int64_t id = 1; id < n; id += 2) {
    ASSERT_EQ(fresh.NodeLevel(id), (*compacted)->NodeLevel(id)) << id;
    for (int64_t level = 0; level <= fresh.NodeLevel(id); ++level) {
      EXPECT_EQ(fresh.GetNeighbors(id, level),
                (*compacted)->GetNeighbors(id, level))
          << "id " << id << " level " << level;
    }
  }
}

TEST(HnswIndexTest, CompactedCopyRestoresRecallOfTombstonedIndex) {
  // The bench gate in unit form: compaction of a 50%-dead index must query
  // as well as a never-churned build, with no dead routing hops left.
  const int64_t n = 600, dim = 16, k = 10;
  common::Rng rng = testutil::TestRng(15);
  const std::vector<float> rows = RandomRows(&rng, n, dim);
  HnswIndex churned(dim);
  EmbeddingIndex exact(dim);
  ASSERT_TRUE(churned.AddBatch(SequentialIds(n), rows).ok());
  for (int64_t id = 0; id < n; id += 2) {
    ASSERT_TRUE(churned.Remove(id).ok());
  }
  for (int64_t id = 1; id < n; id += 2) {
    ASSERT_TRUE(exact.Add(id, rows.data() + id * dim, dim).ok());
  }
  auto compacted = churned.CompactedCopy();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  const int64_t nq = 40;
  const std::vector<float> queries = RandomRows(&rng, nq, dim);
  EXPECT_GE(RecallAtK(**compacted, exact, queries, nq, dim, k), 0.95);
}

}  // namespace
}  // namespace start
