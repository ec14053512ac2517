// stream_ingest: writes beside reads. One thread Pushes dense (5 s) GPS
// traces into a StreamPipeline (HMM matching -> int8 FrozenEncoder
// micro-batches -> in-order upsert into a growing HnswIndex) as fast as
// backpressure allows, then Flushes; a second thread sends open-loop Poisson
// kNN queries (HnswIndex::Query, k = 10) with held-out trip embeddings.
//
// This is the workload for HNSW inserts, dense-fix matching and the int8
// qgemm path, none of which query_mix touches.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "core/config.h"
#include "serve/embedding_index.h"
#include "serve/hnsw_index.h"
#include "serve/stream_pipeline.h"
#include "traj/map_matching.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {
namespace {

namespace serve = start::serve;
namespace traj = start::traj;
using start::common::Rng;

constexpr int64_t kTopK = 10;
constexpr int64_t kStreamIdBase = 1'000'000;
constexpr double kGpsIntervalS = 5.0;  // dense fleet telemetry
constexpr double kGpsNoiseM = 10.0;

struct Spec {
  // About 2,000 prefill rows: with ~8k ingested per run the index ends
  // above 10k rows.
  WorldSpec world{32, 60, 7, 6.0};
  double knn_rate = 200.0;
  double warmup_s = 2.0;
  int setup_reps = 3;
  int64_t heldout_every = 8;
  int64_t max_items_per_s = 4000;  ///< Capacity of the per-item records.
  int64_t stream_pool = 4096;      ///< Distinct GPS traces cycled by the pusher.
};

Spec MakeSpec(const Options& opt) {
  Spec s;
  if (opt.tiny) {
    s.world = {10, 8, 3, 4.0};
    s.knn_rate = 50.0;
    s.warmup_s = 0.2;
    s.setup_reps = 1;
    s.stream_pool = 128;
  }
  if (opt.trace) s.setup_reps = 1;
  return s;
}

/// Per-item records of the phase being ingested.
struct IngestLog {
  std::mutex mu;
  std::vector<int64_t> ingest_ns;  ///< By stream item index; 0 = not yet.
  std::vector<std::pair<int64_t, serve::EmbeddingRow>> rows;
  std::vector<std::pair<traj::Trajectory, serve::EmbeddingRow>> sampled;
};

struct System {
  World world;
  std::vector<traj::Trajectory> corpus, heldout;
  std::shared_ptr<const serve::FrozenEncoder> encoder;
  std::vector<int64_t> ids;
  std::vector<float> rows;     ///< Prefill embeddings.
  std::vector<float> queries;  ///< Held-out trip embeddings (kNN queries).
  std::shared_ptr<serve::HnswIndex> index;
  IngestLog log;  ///< Written by the pipeline's ingested callback.
  std::unique_ptr<serve::StreamPipeline> pipeline;
};

std::unique_ptr<System> Setup(const Spec& spec, const Options& opt,
                              const std::string& checkpoint) {
  auto s = std::make_unique<System>();
  const start::core::StartConfig config;
  {
    ScopedSpan span("setup.world");
    s->world = BuildWorld(spec.world, opt.seed);
    for (size_t i = 0; i < s->world.trips.size(); ++i) {
      (static_cast<int64_t>(i) % spec.heldout_every == 0 ? s->heldout
                                                           : s->corpus)
          .push_back(s->world.trips[i]);
    }
    CheckOk(WriteModelCheckpoint(s->world, config, opt.seed, checkpoint),
            "SaveModelCheckpoint");
  }
  {
    ScopedSpan span("setup.encoder_load");
    s->encoder =
        LoadEncoder(s->world, config, checkpoint, serve::Precision::kInt8);
  }
  {
    ScopedSpan span("setup.prefill_embed");
    s->rows = s->encoder->EmbedAll(s->corpus, start::eval::EncodeMode::kFull);
    s->queries =
        s->encoder->EmbedAll(s->heldout, start::eval::EncodeMode::kFull);
  }
  {
    ScopedSpan span("setup.index_build");
    s->ids.resize(s->corpus.size());
    for (size_t i = 0; i < s->ids.size(); ++i) s->ids[i] = static_cast<int64_t>(i);
    s->index = std::make_shared<serve::HnswIndex>(s->encoder->dim());
    CheckOk(s->index->AddBatch(s->ids, s->rows), "HnswIndex::AddBatch");
  }
  s->pipeline = std::make_unique<serve::StreamPipeline>(
      serve::EngineBundle{s->encoder, s->index, nullptr}, s->world.net.get());
  IngestLog* log = &s->log;
  s->pipeline->SetOnIngested([log](int64_t id, const traj::Trajectory& t,
                                   const serve::EmbeddingRow& row) {
    std::lock_guard<std::mutex> lock(log->mu);
    const int64_t k = id - kStreamIdBase;
    log->ingest_ns[static_cast<size_t>(k)] = NowNs();
    log->rows.emplace_back(id, row);
    if (id % 32 == 0) log->sampled.emplace_back(t, row);
  });
  return s;
}

/// Dense GPS traces of indexed trips, each shifted by a random number of
/// minutes so repeated trips embed differently (time-of-day features).
std::vector<serve::StreamItem> MakeStreamPool(const Spec& spec,
                                              const System& sys,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<serve::StreamItem> pool;
  while (static_cast<int64_t>(pool.size()) < spec.stream_pool) {
    traj::Trajectory t = sys.corpus[static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(sys.corpus.size())))];
    const int64_t shift = 60 * rng.UniformInt(0, 7 * 24 * 60);
    for (auto& ts : t.timestamps) ts += shift;
    t.end_time += shift;
    serve::StreamItem item;
    item.gps = traj::SimulateGps(*sys.world.net, t, kGpsIntervalS, kGpsNoiseM,
                                 &rng);
    if (!item.gps.points.empty()) pool.push_back(std::move(item));
  }
  return pool;
}

struct PhaseResult {
  int64_t t0_ns = 0, push_end_ns = 0;
  int64_t pushed = 0, push_failed = 0;
  double push_blocked_ms = 0.0;
  std::vector<int64_t> push_ns;  ///< Push return time by item index.
  std::vector<double> knn_ms, knn_late_ms;
  int64_t knn_attempted = 0, knn_failed = 0;
  serve::PipelineStats before, after;
  int64_t depth_max[3] = {0, 0, 0};  ///< Sampled (traced phase only).
};

PhaseResult RunPhase(const Spec& spec, System* sys,
                     const std::vector<serve::StreamItem>& pool,
                     double seconds, uint64_t seed, bool sample_depth) {
  PhaseResult res;
  IngestLog* log = &sys->log;
  const double total_s = spec.warmup_s + seconds;
  const auto capacity =
      static_cast<size_t>(spec.max_items_per_s * std::ceil(total_s));
  res.push_ns.assign(capacity, 0);
  {
    std::lock_guard<std::mutex> lock(log->mu);
    log->ingest_ns.assign(capacity, 0);
  }
  Rng rng(seed);
  const std::vector<double> arrivals =
      PoissonArrivals(spec.knn_rate, total_s, &rng);
  const int64_t nq =
      static_cast<int64_t>(sys->queries.size()) / sys->encoder->dim();
  std::vector<int64_t> query_pick(arrivals.size());
  for (auto& q : query_pick) q = rng.UniformInt(nq);

  res.before = sys->pipeline->stats();
  res.t0_ns = NowNs() + 50'000'000;
  const int64_t t0 = res.t0_ns;
  const int64_t end_ns = t0 + static_cast<int64_t>(total_s * 1e9);
  std::atomic<bool> ingest_done{false};

  std::thread pusher([&] {
    SleepUntil(t0, 0.0);
    for (size_t k = 0; k < capacity && NowNs() < end_ns; ++k) {
      serve::StreamItem item = pool[k % pool.size()];
      item.id = kStreamIdBase + static_cast<int64_t>(k);
      const int64_t start = NowNs();
      start::common::Status st;
      {
        ScopedSpan span("serve.stream.push");
        st = sys->pipeline->Push(std::move(item));
      }
      res.push_ns[k] = NowNs();
      res.push_blocked_ms += static_cast<double>(res.push_ns[k] - start) * 1e-6;
      ++res.pushed;
      res.push_failed += st.ok() ? 0 : 1;
    }
    res.push_end_ns = NowNs();
    sys->pipeline->Flush();
    ingest_done = true;
  });
  std::thread reader([&] {
    const int64_t dim = sys->encoder->dim();
    for (size_t i = 0; i < arrivals.size(); ++i) {
      SleepUntil(t0, arrivals[i]);
      const int64_t due = t0 + static_cast<int64_t>(arrivals[i] * 1e9);
      const double late_ms = static_cast<double>(NowNs() - due) * 1e-6;
      const float* q = sys->queries.data() + query_pick[i] * dim;
      bool ok = false;
      {
        ScopedSpan span("serve.hnsw.query");
        auto nn = sys->index->Query(q, dim, kTopK);
        ok = nn.ok() && !nn->empty();
      }
      const double ms = static_cast<double>(NowNs() - due) * 1e-6;
      if (arrivals[i] < spec.warmup_s) continue;
      ++res.knn_attempted;
      res.knn_late_ms.push_back(late_ms);
      if (ok) {
        res.knn_ms.push_back(ms);
      } else {
        ++res.knn_failed;
      }
    }
  });
  std::thread sampler;
  if (sample_depth) {
    sampler = std::thread([&] {
      while (!ingest_done) {
        const serve::PipelineStats st = sys->pipeline->stats();
        res.depth_max[0] = std::max(res.depth_max[0], st.match.queue_depth);
        res.depth_max[1] = std::max(res.depth_max[1], st.embed.queue_depth);
        res.depth_max[2] = std::max(res.depth_max[2], st.upsert.queue_depth);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }
  pusher.join();
  reader.join();
  if (sampler.joinable()) sampler.join();
  res.after = sys->pipeline->stats();
  return res;
}

struct PhaseStats {
  Summary knn, freshness;
  double ingest_tps = 0.0;
  int64_t ingested = 0;
};

PhaseStats Analyze(const Spec& spec, const PhaseResult& res,
                   const IngestLog& log) {
  PhaseStats st;
  st.knn = Summarize(res.knn_ms);
  const int64_t window_start =
      res.t0_ns + static_cast<int64_t>(spec.warmup_s * 1e9);
  std::vector<double> fresh;
  int64_t in_window = 0;
  for (int64_t k = 0; k < res.pushed; ++k) {
    const int64_t done = log.ingest_ns[static_cast<size_t>(k)];
    if (done == 0) continue;
    ++st.ingested;
    if (done >= window_start && done < res.push_end_ns) ++in_window;
    fresh.push_back(std::max<double>(
        0.0, static_cast<double>(done - res.push_ns[static_cast<size_t>(k)]) *
                 1e-6));
  }
  st.freshness = Summarize(fresh);
  const double window_s =
      static_cast<double>(res.push_end_ns - window_start) * 1e-9;
  st.ingest_tps = window_s > 0.0 ? static_cast<double>(in_window) / window_s : 0.0;
  return st;
}

double Cosine(const float* a, const float* b, int64_t n) {
  double ab = 0.0, aa = 0.0, bb = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    ab += static_cast<double>(a[i]) * b[i];
    aa += static_cast<double>(a[i]) * a[i];
    bb += static_cast<double>(b[i]) * b[i];
  }
  return ab / std::sqrt(aa * bb);
}

/// Output checks after a phase has been flushed.
void CheckPhase(const System& sys, const serve::EmbeddingIndex& oracle,
                const PhaseResult& res, const std::string& suffix,
                Report* report, double* recall_out) {
  const serve::PipelineStats& s = res.after;
  const int64_t rhs =
      s.ingested() + s.total_failed() + s.embed.dropped + s.upsert.dropped;
  report->Check("accounting_identity" + suffix, s.accepted == rhs,
                "accepted " + std::to_string(s.accepted) +
                    " == ingested + failed + dropped " + std::to_string(rhs));

  const int64_t dim = sys.encoder->dim();
  const int64_t nq = static_cast<int64_t>(sys.queries.size()) / dim;
  double recall_sum = 0.0;
  for (int64_t q = 0; q < nq; ++q) {
    const float* v = sys.queries.data() + q * dim;
    auto got = sys.index->Query(v, dim, kTopK);
    auto exact = oracle.Query(v, dim, kTopK);
    CheckOk(got.status(), "HnswIndex::Query");
    CheckOk(exact.status(), "EmbeddingIndex::Query");
    std::set<int64_t> truth;
    for (const auto& n : *exact) truth.insert(n.id);
    int64_t hits = 0;
    for (const auto& n : *got) hits += truth.count(n.id);
    recall_sum += static_cast<double>(hits) / static_cast<double>(truth.size());
  }
  const double recall = nq > 0 ? recall_sum / static_cast<double>(nq) : 0.0;
  *recall_out = recall;
  report->Check("recall_at_10" + suffix, nq > 0 && recall >= 0.95,
                "flushed HNSW (" + std::to_string(sys.index->size()) +
                    " rows) vs exact EmbeddingIndex oracle of the same "
                    "(id, row) pairs, mean " +
                    std::to_string(recall) + " over " + std::to_string(nq) +
                    " held-out queries (gate 0.95)");
}

/// One measured phase on a freshly set-up system, with its output checks.
struct Measured {
  PhaseResult res;
  PhaseStats stats;
  double recall = 0.0;
  int64_t failed = 0;  ///< Rejected, failed or shed items and failed reads.
};

Measured MeasurePhase(const Spec& spec, const Options& opt, System* sys,
                      bool traced, Report* report) {
  const std::vector<serve::StreamItem> pool =
      MakeStreamPool(spec, *sys, opt.seed * 31 + 7);
  Measured m;
  Tracer::Enable(traced);
  m.res = RunPhase(spec, sys, pool, opt.seconds,
                   opt.seed * 31 + (traced ? 2 : 1), traced);
  Tracer::Enable(false);
  m.stats = Analyze(spec, m.res, sys->log);

  // The exact oracle holds the same (id, row) pairs as the HNSW index.
  serve::EmbeddingIndex oracle(sys->encoder->dim());
  CheckOk(oracle.AddBatch(sys->ids, sys->rows), "EmbeddingIndex::AddBatch");
  for (const auto& [id, row] : sys->log.rows) {
    CheckOk(oracle.Add(id, row.data(), row.dim()), "EmbeddingIndex::Add");
  }
  CheckPhase(*sys, oracle, m.res, traced ? " (traced)" : "", report, &m.recall);
  const serve::PipelineStats& a = m.res.after;
  m.failed = a.total_failed() + a.total_dropped() + a.rejected +
             m.res.push_failed + m.res.knn_failed;
  report->CountOps(m.res.pushed + m.res.knn_attempted, m.failed);
  return m;
}

}  // namespace

void RunStreamIngest(const Options& opt, Report* report) {
  const Spec spec = MakeSpec(opt);
  const std::string checkpoint = ".bench_out/stream_ingest_model.sttn";

  std::vector<double> setup_s;
  std::unique_ptr<System> sys = RepeatSetup(
      spec.setup_reps, [&] { return Setup(spec, opt, checkpoint); }, &setup_s);
  std::fprintf(stderr, "stream_ingest: %zu prefill rows, %zu queries, "
               "setup %.2fs\n",
               sys->corpus.size(), sys->heldout.size(), Median(setup_s));

  const Measured plain = MeasurePhase(spec, opt, sys.get(), false, report);
  const PhaseStats& ps = plain.stats;
  const int64_t attempted = plain.res.pushed + plain.res.knn_attempted;
  report->EndToEnd("setup_s", Median(setup_s), "s", "lower",
                   static_cast<int64_t>(setup_s.size()));
  report->EndToEnd("p50_ms", ps.knn.p50, "ms", "lower", ps.knn.n);
  report->EndToEnd("tail_ms", ps.knn.p90, "ms", "lower", ps.knn.n);
  report->EndToEnd("throughput_per_s", ps.ingest_tps, "1/s", "higher",
                   ps.ingested);
  report->Detail("ingest_tps", ps.ingest_tps, "trajectories/s", "higher",
                 ps.ingested);
  report->Detail("knn_p50_ms", ps.knn.p50, "ms", "lower", ps.knn.n);
  report->Detail("knn_p99_ms", ps.knn.p99, "ms", "lower", ps.knn.n);
  report->Detail("recall_at_10", plain.recall, "ratio", "higher", 0);
  report->Detail("index_rows", static_cast<double>(sys->index->size()),
                 "count", "higher", 0);
  report->Detail("error_rate",
                 attempted > 0 ? static_cast<double>(plain.failed) /
                                     static_cast<double>(attempted)
                               : 0.0,
                 "failed/attempted", "lower", attempted);

  // int8 vs f32 on ingested trajectories; the f32 engine loads after the
  // timed phase so its memory and time stay out of it.
  {
    const auto f32 = LoadEncoder(sys->world, start::core::StartConfig{},
                                 checkpoint, serve::Precision::kFloat32);
    double cos_sum = 0.0;
    for (const auto& [t, row] : sys->log.sampled) {
      const start::tensor::Tensor ref =
          f32->EncodeBatch({&t}, start::eval::EncodeMode::kFull);
      cos_sum += Cosine(ref.data(), row.data(), row.dim());
    }
    const auto n = static_cast<int64_t>(sys->log.sampled.size());
    const double cosine = n > 0 ? cos_sum / static_cast<double>(n) : 0.0;
    report->Detail("embed_cosine_vs_f32", cosine, "mean cosine", "higher", n);
    report->Check("embed_cosine_vs_f32", n > 0 && cosine >= 0.99,
                  "int8 rows vs f32 FrozenEncoder on " + std::to_string(n) +
                      " ingested trajectories, mean cosine " +
                      std::to_string(cosine) + " (gate 0.99)");
  }

  if (opt.trace) {
    // The traced run starts from the same state as the untraced one: a
    // fresh set-up, so the index it grows starts at the prefill size.
    sys.reset();
    Tracer::Enable(true);
    sys = Setup(spec, opt, checkpoint);
    Tracer::Enable(false);
    const std::vector<Span> setup_spans = Tracer::Collect();
    Tracer::Clear();
    const Measured traced = MeasurePhase(spec, opt, sys.get(), true, report);
    const std::vector<Span> spans = Tracer::Collect();
    const auto layers = Tracer::Summarize(spans);
    report->Spans(layers);
    const serve::PipelineStats& b = traced.res.before;
    const serve::PipelineStats& a = traced.res.after;
    report->Layer("traj.match.calls",
                  static_cast<double>((a.match.completed + a.match.failed) -
                                      (b.match.completed + b.match.failed)));
    report->Layer("traj.match.failed",
                  static_cast<double>(a.match.failed - b.match.failed));
    LayerLatency(report, layers, "serve.hnsw.query", "serve.hnsw.query_");
    report->Layer("serve.hnsw.rows", static_cast<double>(sys->index->size()));
    const serve::StageStats* sa[3] = {&a.match, &a.embed, &a.upsert};
    const serve::StageStats* sb[3] = {&b.match, &b.embed, &b.upsert};
    const char* names[3] = {"match", "embed", "upsert"};
    for (int i = 0; i < 3; ++i) {
      const std::string p = std::string("serve.stream.") + names[i] + ".";
      report->Layer(p + "completed",
                    static_cast<double>(sa[i]->completed - sb[i]->completed));
      report->Layer(p + "failed",
                    static_cast<double>(sa[i]->failed - sb[i]->failed));
      report->Layer(p + "retried",
                    static_cast<double>(sa[i]->retried - sb[i]->retried));
      report->Layer(p + "dropped",
                    static_cast<double>(sa[i]->dropped - sb[i]->dropped));
      report->Layer(p + "p50_ms", sa[i]->p50_ms);
      report->Layer(p + "p95_ms", sa[i]->p95_ms);
      report->Layer(p + "queue_depth_max",
                    static_cast<double>(traced.res.depth_max[i]));
    }
    report->Layer("serve.stream.push_blocked_ms", traced.res.push_blocked_ms);
    report->Layer("serve.stream.freshness.p50_ms", traced.stats.freshness.p50);
    report->Layer("serve.stream.freshness.p99_ms", traced.stats.freshness.p99);
    const Summary late = Summarize(traced.res.knn_late_ms);
    report->Layer("loadgen.late.p99_ms", late.p99);
    report->Layer("loadgen.late.max_ms", late.max);

    ReportSetupLayers(report, setup_spans);
    // Overhead as extra time per ingested trajectory.
    report->Layer("trace.overhead_pct",
                  OverheadPct(1.0 / traced.stats.ingest_tps, 1.0 / ps.ingest_tps));
    report->Layer("trace.spans", static_cast<double>(spans.size()));
    report->Detail("traced_ingest_tps", traced.stats.ingest_tps,
                   "trajectories/s", "higher", traced.stats.ingested);
    report->Detail("traced_knn_p50_ms", traced.stats.knn.p50, "ms", "lower",
                   traced.stats.knn.n);

    WriteTrace(opt, setup_spans, spans);
  }
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB", "lower", 1);
}

}  // namespace perfbench
