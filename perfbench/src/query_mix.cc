// query_mix: the user-facing path, GPS in and answer out. Open loop: one
// generator thread releases requests at Poisson arrival times into a queue
// served by three handler threads; latency runs from each request's due time,
// so a stall also charges the requests queued behind it.
//
// Half the requests are top-k (a whole trip sampled every 15 s -> HMM map
// matching -> EmbeddingService (f32 FrozenEncoder) -> HNSW via CityRouter,
// k = 10); the other half are ETA (the partial trace of an ongoing trip ->
// matching -> CH travel time from the current segment to the destination).
#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "core/config.h"
#include "roadnet/csr_graph.h"
#include "roadnet/graph_registry.h"
#include "serve/city_router.h"
#include "serve/embedding_index.h"
#include "serve/embedding_service.h"
#include "serve/hnsw_index.h"
#include "traj/map_matching.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {
namespace {

namespace serve = start::serve;
namespace traj = start::traj;
using start::common::Rng;

constexpr char kCity[] = "city";
constexpr int64_t kTopK = 10;
constexpr double kGpsIntervalS = 15.0;  // Porto's sampling rate
constexpr double kGpsNoiseM = 10.0;

struct Spec {
  WorldSpec world{32, 40, 7, 6.0};
  double topk_rate = 60.0;
  double eta_rate = 60.0;
  int handlers = 3;
  double warmup_s = 2.0;  ///< Per measured segment.
  int setup_reps = 3;
  int64_t heldout_every = 8;  ///< Every n-th trip is a request, not indexed.
};

Spec MakeSpec(const Options& opt) {
  Spec s;
  if (opt.tiny) {
    s.world = {10, 8, 3, 4.0};
    s.topk_rate = s.eta_rate = 20.0;
    s.warmup_s = 0.2;
    s.setup_reps = 1;
  }
  if (opt.trace) s.setup_reps = 1;
  return s;
}

/// The serving system under test. Members are declared in dependency order
/// so destruction releases users before what they use.
struct System {
  World world;
  std::vector<traj::Trajectory> corpus;   ///< Indexed trips.
  std::vector<traj::Trajectory> heldout;  ///< Request trips.
  std::unique_ptr<start::roadnet::GraphRegistry> registry;
  std::unique_ptr<serve::FrozenEncoder> encoder;
  std::vector<int64_t> ids;
  std::vector<float> rows;  ///< Prefill embeddings, row-major.
  std::unique_ptr<serve::HnswIndex> index;
  std::unique_ptr<serve::CityRouter> router;
  std::unique_ptr<serve::EmbeddingService> service;
};

std::unique_ptr<System> Setup(const Spec& spec, const Options& opt,
                              const std::string& checkpoint) {
  auto s = std::make_unique<System>();
  const start::core::StartConfig config;  // library defaults
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
    ScopedSpan span("setup.ch_build");
    s->registry = std::make_unique<start::roadnet::GraphRegistry>();
    CheckOk(s->registry->Register(kCity, s->world.net), "GraphRegistry::Register");
  }
  {
    ScopedSpan span("setup.encoder_load");
    s->encoder =
        LoadEncoder(s->world, config, checkpoint, serve::Precision::kFloat32);
  }
  {
    ScopedSpan span("setup.prefill_embed");
    s->rows = s->encoder->EmbedAll(s->corpus, start::eval::EncodeMode::kFull);
  }
  {
    ScopedSpan span("setup.index_build");
    s->ids.resize(s->corpus.size());
    for (size_t i = 0; i < s->ids.size(); ++i) s->ids[i] = static_cast<int64_t>(i);
    s->index = std::make_unique<serve::HnswIndex>(s->encoder->dim());
    CheckOk(s->index->AddBatch(s->ids, s->rows), "HnswIndex::AddBatch");
  }
  s->router = std::make_unique<serve::CityRouter>(s->registry.get());
  serve::CityRouter::CityConfig city;
  city.encoder = s->encoder.get();
  city.index = s->index.get();
  CheckOk(s->router->OpenCity(kCity, city), "CityRouter::OpenCity");
  s->service = std::make_unique<serve::EmbeddingService>(s->encoder.get());
  return s;
}

struct Request {
  bool topk = true;
  double due_s = 0.0;
  traj::GpsTrajectory gps;
  int64_t dest = -1;  ///< ETA destination segment.
};

struct Outcome {
  bool ok = false;
  bool match_failed = false;
  double latency_ms = 0.0, wait_ms = 0.0, late_ms = 0.0;
  int64_t done_ns = 0;
  std::vector<float> row;         ///< top-k: the served embedding.
  std::vector<int64_t> neighbors;  ///< top-k: the answer.
  traj::Trajectory matched;        ///< top-k: the matched trip.
  int64_t from = -1, to = -1;      ///< ETA query.
  double eta_s = 0.0;              ///< ETA answer.
};

/// The request stream of one phase, drawn from the seed.
std::vector<Request> MakeRequests(const Spec& spec, const System& sys,
                                  double duration, uint64_t seed) {
  Rng rng(seed);
  const double rate = spec.topk_rate + spec.eta_rate;
  std::vector<Request> reqs;
  for (double due : PoissonArrivals(rate, duration, &rng)) {
    Request r;
    r.due_s = due;
    r.topk = rng.Bernoulli(spec.topk_rate / rate);
    const traj::Trajectory& trip =
        sys.heldout[static_cast<size_t>(rng.UniformInt(
            static_cast<int64_t>(sys.heldout.size())))];
    if (r.topk) {
      r.gps = traj::SimulateGps(*sys.world.net, trip, kGpsIntervalS,
                                kGpsNoiseM, &rng);
    } else {
      // The trip so far: a prefix of 30-70% of its segments.
      const auto n = static_cast<int64_t>(trip.roads.size());
      const int64_t k = std::clamp<int64_t>(
          static_cast<int64_t>(rng.Uniform(0.3, 0.7) * static_cast<double>(n)),
          2, n - 1);
      traj::Trajectory prefix;
      prefix.roads.assign(trip.roads.begin(), trip.roads.begin() + k);
      prefix.timestamps.assign(trip.timestamps.begin(),
                               trip.timestamps.begin() + k);
      prefix.end_time = trip.timestamps[static_cast<size_t>(k)];
      r.gps = traj::SimulateGps(*sys.world.net, prefix, kGpsIntervalS,
                                kGpsNoiseM, &rng);
      r.dest = trip.roads.back();
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

struct PhaseResult {
  std::vector<Outcome> out;
  std::vector<Request> reqs;
  int64_t t0_ns = 0;
  serve::ServiceStats service_before, service_after;
};

PhaseResult RunPhase(const Spec& spec, System* sys, double seconds,
                     uint64_t seed) {
  PhaseResult res;
  res.reqs = MakeRequests(spec, *sys, spec.warmup_s + seconds, seed);
  res.out.resize(res.reqs.size());

  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> queue;
  bool done = false;

  res.service_before = sys->service->stats();
  res.t0_ns = NowNs() + 50'000'000;  // lead time for thread start-up
  const int64_t t0 = res.t0_ns;
  const auto due_ns = [&](size_t i) {
    return t0 + static_cast<int64_t>(res.reqs[i].due_s * 1e9);
  };

  const auto handler = [&] {
    const traj::HmmMapMatcher matcher(sys->world.net.get(), {});
    while (true) {
      size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) return;
        i = queue.front();
        queue.pop_front();
      }
      const Request& req = res.reqs[i];
      Outcome& o = res.out[i];
      o.wait_ms = static_cast<double>(NowNs() - due_ns(i)) * 1e-6;
      Tracer::SetRequest(static_cast<int64_t>(i));
      {
        ScopedSpan root(req.topk ? "bench.request.topk" : "bench.request.eta");
        traj::Trajectory t;
        {
          ScopedSpan span("traj.match");
          t = matcher.MatchTrajectory(req.gps);
        }
        if (t.roads.empty()) {
          o.match_failed = true;
        } else if (req.topk) {
          serve::EmbeddingRow row;
          {
            ScopedSpan span("serve.service.encode");
            auto fut = sys->service->Encode(t);
            if (fut.ok()) row = fut->get();
          }
          if (row.defined()) {
            o.row = row.ToVector();
            ScopedSpan span("serve.hnsw.query");
            auto nn = sys->router->Query(kCity, o.row, kTopK);
            if (nn.ok()) {
              for (const auto& n : *nn) o.neighbors.push_back(n.id);
              o.ok = true;
            }
          }
          o.matched = std::move(t);
        } else {
          o.from = t.roads.back();
          o.to = req.dest;
          ScopedSpan span("roadnet.ch.route");
          auto eta = sys->router->TravelTimeSeconds(kCity, o.from, o.to);
          if (eta.ok()) {
            o.eta_s = *eta;
            o.ok = true;
          }
        }
      }
      o.done_ns = NowNs();
      o.latency_ms = static_cast<double>(o.done_ns - due_ns(i)) * 1e-6;
    }
  };

  std::vector<std::thread> handlers;
  for (int h = 0; h < spec.handlers; ++h) handlers.emplace_back(handler);
  std::thread generator([&] {
    for (size_t i = 0; i < res.reqs.size(); ++i) {
      SleepUntil(t0, res.reqs[i].due_s);
      res.out[i].late_ms = static_cast<double>(NowNs() - due_ns(i)) * 1e-6;
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(i);
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_all();
  });
  generator.join();
  for (auto& t : handlers) t.join();
  res.service_after = sys->service->stats();
  return res;
}

struct PhaseStats {
  std::vector<double> topk_ms, eta_ms;  ///< Answered requests' latencies.
  Summary topk, eta, wait, late;
  int64_t attempted = 0, failed = 0, match_failed = 0;
  double throughput = 0.0;
};

PhaseStats Analyze(const Spec& spec, const PhaseResult& res) {
  PhaseStats st;
  std::vector<double>& topk = st.topk_ms;
  std::vector<double>& eta = st.eta_ms;
  std::vector<double> wait, late;
  int64_t last_done = 0;
  for (size_t i = 0; i < res.reqs.size(); ++i) {
    if (res.reqs[i].due_s < spec.warmup_s) continue;  // warm-up
    const Outcome& o = res.out[i];
    ++st.attempted;
    wait.push_back(o.wait_ms);
    late.push_back(o.late_ms);
    st.match_failed += o.match_failed ? 1 : 0;
    if (!o.ok) {
      ++st.failed;
      continue;
    }
    (res.reqs[i].topk ? topk : eta).push_back(o.latency_ms);
    last_done = std::max(last_done, o.done_ns);
  }
  st.topk = Summarize(topk);
  st.eta = Summarize(eta);
  st.wait = Summarize(wait);
  st.late = Summarize(late);
  const double window_s =
      static_cast<double>(last_done - res.t0_ns) * 1e-9 - spec.warmup_s;
  st.throughput = window_s > 0.0
                      ? static_cast<double>(st.attempted - st.failed) / window_s
                      : 0.0;
  return st;
}

/// Output-check counts, accumulated over phases.
struct CheckTally {
  double recall_sum = 0.0;
  int64_t recall_n = 0, eta_n = 0, eta_bad = 0, row_n = 0, row_bad = 0;

  double recall() const { return recall_n > 0 ? recall_sum / recall_n : 0.0; }
};

/// Checks one phase's answers against independent references: an exact
/// EmbeddingIndex over the same (id, row) pairs, CsrDijkstra, and direct
/// FrozenEncoder::EncodeBatch calls.
void CheckPhase(const Spec& spec, const System& sys, const PhaseResult& res,
                CheckTally* t) {
  serve::EmbeddingIndex oracle(sys.encoder->dim());
  CheckOk(oracle.AddBatch(sys.ids, sys.rows), "EmbeddingIndex::AddBatch");
  const auto graph = sys.registry->Get(kCity)->graph;
  start::roadnet::CsrDijkstra dijkstra(graph.get());
  for (size_t i = 0; i < res.reqs.size(); ++i) {
    const Outcome& o = res.out[i];
    if (!o.ok || res.reqs[i].due_s < spec.warmup_s) continue;
    if (res.reqs[i].topk) {
      auto exact = oracle.Query(o.row, kTopK);
      CheckOk(exact.status(), "EmbeddingIndex::Query");
      std::set<int64_t> truth;
      for (const auto& n : *exact) truth.insert(n.id);
      int64_t hits = 0;
      for (int64_t id : o.neighbors) hits += truth.count(id);
      t->recall_sum += truth.empty() ? 1.0
                                     : static_cast<double>(hits) /
                                           static_cast<double>(truth.size());
      if (t->recall_n++ % 8 == 0) {
        const start::tensor::Tensor direct = sys.encoder->EncodeBatch(
            {&o.matched}, start::eval::EncodeMode::kFull);
        ++t->row_n;
        t->row_bad += std::memcmp(direct.data(), o.row.data(),
                                  o.row.size() * sizeof(float)) != 0;
      }
    } else if (i % 4 == 0) {
      const start::roadnet::Cost c =
          dijkstra.Distance(graph->ToNode(o.from), graph->ToNode(o.to));
      ++t->eta_n;
      t->eta_bad += graph->CostToSeconds(c) != o.eta_s;
    }
  }
}

void ReportChecks(const CheckTally& t, const std::string& suffix,
                  Report* report) {
  report->Check("recall_at_10" + suffix, t.recall_n > 0 && t.recall() >= 0.95,
                "HNSW vs exact EmbeddingIndex oracle, mean " +
                    std::to_string(t.recall()) + " over " +
                    std::to_string(t.recall_n) + " top-k answers (gate 0.95)");
  report->Check("eta_equals_dijkstra" + suffix, t.eta_n > 0 && t.eta_bad == 0,
                std::to_string(t.eta_n - t.eta_bad) + "/" +
                    std::to_string(t.eta_n) +
                    " sampled ETA answers equal CsrDijkstra cost");
  report->Check("service_rows_bitwise" + suffix, t.row_n > 0 && t.row_bad == 0,
                std::to_string(t.row_n - t.row_bad) + "/" +
                    std::to_string(t.row_n) +
                    " sampled rows equal FrozenEncoder::EncodeBatch({t})");
}

}  // namespace

void RunQueryMix(const Options& opt, Report* report) {
  const Spec spec = MakeSpec(opt);
  const std::string checkpoint = ".bench_out/query_mix_model.sttn";

  // Every set-up is followed by its own measured segment, and the run
  // reports the median over segments. Each segment so runs on a fresh
  // system, with a fresh EmbeddingService worker and kernel thread team: now
  // and then a team runs a whole segment several times slower, and one such
  // segment must not decide the run.
  const double segment_s = opt.seconds / spec.setup_reps;
  std::vector<double> setup_s, p50, tail, throughput, topk_ms, eta_ms;
  std::vector<Span> setup_spans;
  std::unique_ptr<System> sys;
  CheckTally tally;
  int64_t attempted = 0, failed = 0;
  double last_p50 = 0.0;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    if (SetupBudgetLeft(setup_s)) {  // else the segment reuses the system
      sys.reset();  // the previous system is torn down before the next one
      Tracer::Enable(opt.trace);
      const int64_t start = NowNs();
      sys = Setup(spec, opt, checkpoint);
      setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
      setup_spans = Tracer::Collect();
      Tracer::Clear();
      Tracer::Enable(false);
    }

    const PhaseResult plain =
        RunPhase(spec, sys.get(), segment_s, opt.seed * 31 + 1 + rep);
    const PhaseStats ps = Analyze(spec, plain);
    CheckPhase(spec, *sys, plain, &tally);
    attempted += ps.attempted;
    failed += ps.failed;
    p50.push_back(ps.topk.p50);
    tail.push_back(ps.topk.p90);
    throughput.push_back(ps.throughput);
    topk_ms.insert(topk_ms.end(), ps.topk_ms.begin(), ps.topk_ms.end());
    eta_ms.insert(eta_ms.end(), ps.eta_ms.begin(), ps.eta_ms.end());
    last_p50 = ps.topk.p50;
  }
  std::fprintf(stderr, "query_mix: %zu indexed trips, %zu request trips, "
               "%lld segments, setup %.2fs\n",
               sys->corpus.size(), sys->heldout.size(),
               static_cast<long long>(sys->world.net->num_segments()),
               Median(setup_s));
  ReportChecks(tally, "", report);
  report->CountOps(attempted, failed);

  const Summary topk = Summarize(topk_ms);
  const Summary eta = Summarize(eta_ms);
  report->EndToEnd("setup_s", Median(setup_s), "s", "lower",
                   static_cast<int64_t>(setup_s.size()));
  report->EndToEnd("p50_ms", Median(p50), "ms", "lower", topk.n);
  report->EndToEnd("tail_ms", Median(tail), "ms", "lower", topk.n);
  report->EndToEnd("throughput_per_s", Median(throughput), "1/s", "higher",
                   attempted - failed);
  report->Detail("topk_p50_ms", Median(p50), "ms", "lower", topk.n);
  report->Detail("topk_p99_ms", topk.p99, "ms", "lower", topk.n);
  report->Detail("eta_p50_ms", eta.p50, "ms", "lower", eta.n);
  report->Detail("eta_p99_ms", eta.p99, "ms", "lower", eta.n);
  report->Detail("recall_at_10", tally.recall(), "ratio", "higher",
                 tally.recall_n);
  report->Detail("error_rate",
                 attempted > 0 ? static_cast<double>(failed) /
                                     static_cast<double>(attempted)
                               : 0.0,
                 "failed/attempted", "lower", attempted);
  report->Detail("offered_rate_per_s", spec.topk_rate + spec.eta_rate, "1/s",
                 "higher", attempted);
  report->Detail("index_rows", static_cast<double>(sys->index->size()),
                 "count", "higher", 0);

  if (opt.trace) {
    Tracer::Enable(true);
    const PhaseResult traced =
        RunPhase(spec, sys.get(), segment_s, opt.seed * 31 + 100);
    Tracer::Enable(false);
    const std::vector<Span> spans = Tracer::Collect();
    const PhaseStats ts = Analyze(spec, traced);
    CheckTally traced_tally;
    CheckPhase(spec, *sys, traced, &traced_tally);
    ReportChecks(traced_tally, " (traced)", report);
    report->CountOps(ts.attempted, ts.failed);
    const auto layers = Tracer::Summarize(spans);
    report->Spans(layers);
    const auto count = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0
                                : static_cast<double>(it->second.dur_ms.size());
    };
    LayerLatency(report, layers, "traj.match", "traj.match.");
    report->Layer("traj.match.calls", count("traj.match"));
    report->Layer("traj.match.failed", static_cast<double>(ts.match_failed));
    LayerLatency(report, layers, "serve.service.encode", "serve.service.encode_");
    serve::ServiceStats d;
    d.requests = traced.service_after.requests - traced.service_before.requests;
    d.batches = traced.service_after.batches - traced.service_before.batches;
    d.padded_tokens =
        traced.service_after.padded_tokens - traced.service_before.padded_tokens;
    d.real_tokens =
        traced.service_after.real_tokens - traced.service_before.real_tokens;
    report->Layer("serve.service.coalescing", d.coalescing());
    report->Layer("serve.service.padding_efficiency", d.padding_efficiency());
    LayerLatency(report, layers, "serve.hnsw.query", "serve.hnsw.query_");
    report->Layer("serve.hnsw.rows", static_cast<double>(sys->index->size()));
    LayerLatency(report, layers, "roadnet.ch.route", "roadnet.ch.route_");
    report->Layer("bench.queue_wait.p50_ms", ts.wait.p50);
    report->Layer("bench.queue_wait.p99_ms", ts.wait.p99);
    report->Layer("loadgen.late.p99_ms", ts.late.p99);
    report->Layer("loadgen.late.max_ms", ts.late.max);

    ReportSetupLayers(report, setup_spans);
    // Against the untraced segment just before, on the same system.
    report->Layer("trace.overhead_pct", OverheadPct(ts.topk.p50, last_p50));
    report->Layer("trace.spans", static_cast<double>(spans.size()));
    report->Detail("traced_topk_p50_ms", ts.topk.p50, "ms", "lower", ts.topk.n);
    report->Detail("traced_eta_p50_ms", ts.eta.p50, "ms", "lower", ts.eta.n);

    WriteTrace(opt, setup_spans, spans);
  }
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB", "lower", 1);
}

}  // namespace perfbench
