// pretrain: core::Pretrain with the library-default PretrainConfig (batch
// 16, length-bucketed, the default loop) on a fixed corpus, closed loop, one
// caller thread. The only workload that runs stage-1 TPE-GAT per step, the
// autograd backward pass, AdamW and the data::BatchLoader.
//
// Every corpus has the same length profile whatever the seed (prefixes of
// generated trips cut to fixed lengths), so each seed trains on different
// trips but does the same arithmetic per step.
//
// The traced run cannot open spans inside core::Pretrain, so it calls the
// same public functions in Pretrain's order (loader, ComputeRoadReps, Encode,
// heads and losses, Backward, ClipGradNorm + AdamW) with a span around each.
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "core/pretrain.h"
#include "core/start_model.h"
#include "data/dataset.h"
#include "data/loader.h"
#include "nn/losses.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"
#include "tensor/ops.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {
namespace {

namespace core = start::core;
namespace data = start::data;
namespace traj = start::traj;
using start::common::Rng;
using start::tensor::Tensor;

struct Spec {
  WorldSpec world{32, 40, 7, 6.0};
  int64_t min_len = 17;  ///< Corpus lengths min_len .. max_len, each twice:
  int64_t max_len = 48;  ///< with bucket width 8, four full batches of 16.
  int64_t epochs = 1;    ///< Per Pretrain() call: 4 optimizer steps.
  int setup_reps = 3;
};

Spec MakeSpec(const Options& opt) {
  Spec s;
  if (opt.tiny) {
    s.world = {10, 8, 3, 4.0};
    s.min_len = 9;
    s.max_len = 16;
    s.setup_reps = 1;
  }
  if (opt.trace) s.setup_reps = 1;
  return s;
}

struct System {
  World world;
  std::vector<traj::Trajectory> corpus;
  std::unique_ptr<core::StartModel> model;
};

/// A prefix of `t` with `len` segments.
traj::Trajectory Prefix(const traj::Trajectory& t, int64_t len) {
  traj::Trajectory p = t;
  const auto n = static_cast<size_t>(std::min(len, t.size()));
  p.roads.resize(n);
  p.timestamps.resize(n);
  if (n < t.timestamps.size()) p.end_time = t.timestamps[n];
  return p;
}

std::unique_ptr<System> Setup(const Spec& spec, const Options& opt) {
  auto s = std::make_unique<System>();
  {
    ScopedSpan span("setup.world");
    s->world = BuildWorld(spec.world, opt.seed);
    Rng rng(opt.seed * 31 + 5);
    const auto& trips = s->world.trips;
    for (int64_t len = spec.min_len; len <= spec.max_len; ++len) {
      for (int copy = 0; copy < 2; ++copy) {
        // A random trip at least `len` long (the longest one if none is).
        size_t pick = 0;
        for (int attempt = 0; attempt < 1000; ++attempt) {
          const auto i = static_cast<size_t>(
              rng.UniformInt(static_cast<int64_t>(trips.size())));
          if (trips[i].size() > trips[pick].size()) pick = i;
          if (trips[i].size() >= len) {
            pick = i;
            break;
          }
        }
        s->corpus.push_back(Prefix(trips[pick], len));
      }
    }
  }
  Rng rng(opt.seed * 31 + 6);
  s->model = std::make_unique<core::StartModel>(
      core::StartConfig{}, s->world.net.get(), s->world.transfer.get(), &rng);
  return s;
}

core::PretrainConfig TrainConfig(const Spec& spec) {
  core::PretrainConfig config;  // library defaults
  config.epochs = spec.epochs;
  return config;
}

/// The step plan core::Pretrain builds for `config`.
data::PretrainPlan MakePlan(const System& sys,
                            const core::PretrainConfig& config) {
  data::PlanConfig plan;
  plan.batch_size = config.batch_size;
  plan.epochs = config.epochs;
  plan.bucket_by_length = config.bucket_by_length;
  plan.bucket_width = config.bucket_width;
  plan.seed = config.seed;
  return data::MakeShuffledPlan(data::Lengths(sys.corpus), plan);
}

/// One Pretrain()-equivalent call with a span around every public call.
/// Returns the per-step losses.
std::vector<double> TracedCall(System* sys, const core::PretrainConfig& config) {
  core::StartModel* model = sys->model.get();
  model->SetTraining(true);
  data::PretrainPlan plan = MakePlan(*sys, config);
  const auto total = static_cast<int64_t>(plan.steps.size());
  data::PretrainBatchOptions batch;
  batch.use_mask_task = config.use_mask_task;
  batch.use_contrastive_task = config.use_contrastive_task;
  batch.mask_span = config.mask_span;
  batch.mask_ratio = config.mask_ratio;
  batch.aug_a = config.aug_a;
  batch.aug_b = config.aug_b;
  start::nn::AdamW opt(model->Parameters(), config.lr, 0.9, 0.999, 1e-8,
                       config.weight_decay);
  const start::nn::WarmupCosineSchedule schedule(
      config.lr,
      static_cast<int64_t>(config.warmup_fraction * static_cast<double>(total)),
      total, config.lr * 0.05);
  data::LoaderConfig loader_config;
  loader_config.num_workers = config.num_workers;
  loader_config.prefetch_depth = config.prefetch_depth;
  loader_config.seed = config.seed;
  data::BatchLoader loader(
      std::move(plan.steps),
      data::MakePretrainBuilder(&sys->corpus, sys->world.traffic.get(), batch),
      loader_config);
  Rng dropout_rng(config.seed);
  model->SetDropoutRng(&dropout_rng);

  std::vector<double> losses;
  data::TrainingBatch tb;
  while (true) {
    ScopedSpan step("bench.pretrain.step");
    bool got = false;
    {
      ScopedSpan span("data.loader.next");
      got = loader.Next(&tb);
    }
    if (!got) break;
    dropout_rng.Seed(data::BatchLoader::StepSeed(config.seed, tb.step));
    Tensor road_reps;
    {
      ScopedSpan span("core.tpe_gat");
      road_reps = model->ComputeRoadReps();
    }
    Tensor loss;
    if (tb.has_masked && !tb.mask_positions.empty()) {
      core::EncoderOutput out;
      {
        ScopedSpan span("core.encoder.forward");
        out = model->Encode(tb.masked, road_reps);
      }
      ScopedSpan span("core.heads");
      const Tensor logits =
          model->MaskedLogits(out, tb.mask_positions, tb.masked.max_len);
      const Tensor mask_loss =
          start::tensor::CrossEntropyWithLogits(logits, tb.mask_targets);
      loss = start::tensor::Scale(mask_loss, static_cast<float>(config.lambda));
    }
    if (tb.has_contrastive) {
      core::EncoderOutput out;
      {
        ScopedSpan span("core.encoder.forward");
        out = model->Encode(tb.contrastive, road_reps);
      }
      ScopedSpan span("core.heads");
      const Tensor con = start::nn::NtXentLoss(out.cls, config.tau);
      const Tensor scaled =
          start::tensor::Scale(con, static_cast<float>(1.0 - config.lambda));
      loss = loss.defined() ? start::tensor::Add(loss, scaled) : scaled;
    }
    {
      ScopedSpan span("nn.optim");
      opt.ZeroGrad();
    }
    {
      ScopedSpan span("tensor.backward");
      loss.Backward();
    }
    {
      ScopedSpan span("nn.optim");
      start::nn::ClipGradNorm(model->Parameters(), config.grad_clip);
      opt.set_lr(schedule.LrAt(tb.step));
      opt.Step();
    }
    losses.push_back(loss.item());
    loader.Recycle(std::move(tb));
  }
  model->SetDropoutRng(nullptr);
  return losses;
}

bool AllFinite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return !v.empty();
}

}  // namespace

void RunPretrain(const Options& opt, Report* report) {
  const Spec spec = MakeSpec(opt);
  Tracer::Enable(opt.trace);
  std::vector<double> setup_s;
  std::unique_ptr<System> sys = RepeatSetup(
      spec.setup_reps, [&] { return Setup(spec, opt); }, &setup_s);
  const std::vector<Span> setup_spans = Tracer::Collect();
  Tracer::Clear();
  Tracer::Enable(false);

  const core::PretrainConfig config = TrainConfig(spec);
  const auto steps_per_call =
      static_cast<int64_t>(MakePlan(*sys, config).steps.size());
  std::fprintf(stderr, "pretrain: %zu trajectories, %lld steps per call, "
               "setup %.2fs\n",
               sys->corpus.size(), static_cast<long long>(steps_per_call),
               Median(setup_s));

  // The first call (from fresh weights) is the warm-up.
  const core::PretrainStats first = core::Pretrain(
      sys->model.get(), sys->corpus, sys->world.traffic.get(), config);
  std::vector<double> call_ms;
  std::vector<double> losses = first.epoch_loss;
  double last_epoch_loss = first.epoch_loss.back();
  const int64_t t0 = NowNs();
  while (static_cast<double>(NowNs() - t0) * 1e-9 < opt.seconds) {
    const int64_t start = NowNs();
    const core::PretrainStats stats = core::Pretrain(
        sys->model.get(), sys->corpus, sys->world.traffic.get(), config);
    call_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    losses.insert(losses.end(), stats.epoch_loss.begin(),
                  stats.epoch_loss.end());
    last_epoch_loss = stats.epoch_loss.back();
  }
  double total_ms = 0.0;
  for (double ms : call_ms) total_ms += ms;
  const auto steps = static_cast<int64_t>(call_ms.size()) * steps_per_call;
  const double steps_per_s = static_cast<double>(steps) / (total_ms * 1e-3);
  const Summary calls = Summarize(call_ms);

  report->Check("loss_finite", AllFinite(losses),
                std::to_string(losses.size()) + " epoch losses finite");
  // Each call is one epoch over the corpus, continuing from the previous
  // call's weights.
  report->Check("loss_decreases", last_epoch_loss < first.epoch_loss.front(),
                "first epoch loss " + std::to_string(first.epoch_loss.front()) +
                    ", last epoch loss " + std::to_string(last_epoch_loss) +
                    " after " + std::to_string(losses.size()) + " epochs");
  report->CountOps(static_cast<int64_t>(call_ms.size()), 0);
  report->EndToEnd("setup_s", Median(setup_s), "s", "lower",
                   static_cast<int64_t>(setup_s.size()));
  report->EndToEnd("p50_ms", calls.p50, "ms", "lower", calls.n);
  report->EndToEnd("tail_ms", calls.p90, "ms", "lower", calls.n);
  report->EndToEnd("throughput_per_s", steps_per_s, "1/s", "higher", steps);
  report->Detail("train_steps_per_s", steps_per_s, "steps/s", "higher", steps);
  report->Detail("pretrain_call_p50_ms", calls.p50, "ms", "lower", calls.n);
  report->Detail("steps_per_call", static_cast<double>(steps_per_call), "count",
                 "higher", 0);
  report->Detail("first_epoch_loss", first.epoch_loss.front(), "loss", "lower",
                 0);
  report->Detail("last_epoch_loss", last_epoch_loss, "loss", "lower", 0);

  if (opt.trace) {
    Tracer::Enable(true);
    std::vector<double> traced_losses;
    double traced_ms = 0.0;
    while (traced_ms * 1e-3 < opt.seconds) {
      const int64_t start = NowNs();
      const std::vector<double> l = TracedCall(sys.get(), config);
      traced_ms += static_cast<double>(NowNs() - start) * 1e-6;
      traced_losses.insert(traced_losses.end(), l.begin(), l.end());
    }
    Tracer::Enable(false);
    const std::vector<Span> spans = Tracer::Collect();
    const auto layers = Tracer::Summarize(spans);
    report->Spans(layers);
    const auto total = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.total_ms;
    };
    const auto traced_steps = static_cast<double>(traced_losses.size());
    const double step_ms = total("bench.pretrain.step");
    double covered = 0.0;
    for (const char* name :
         {"data.loader.next", "core.tpe_gat", "core.encoder.forward",
          "core.heads", "tensor.backward", "nn.optim"}) {
      covered += total(name);
    }
    const double coverage = step_ms > 0.0 ? covered / step_ms : 0.0;
    report->Check("loss_finite (traced)", AllFinite(traced_losses),
                  std::to_string(traced_losses.size()) + " step losses finite");
    report->Check("span_coverage", coverage >= 0.9,
                  "per-layer spans cover " + std::to_string(100.0 * coverage) +
                      "% of step wall time (gate 90%)");
    report->Layer("data.loader.next_ms", total("data.loader.next") / traced_steps);
    report->Layer("core.tpe_gat.ms", total("core.tpe_gat") / traced_steps);
    report->Layer("core.encoder.forward_ms",
                  total("core.encoder.forward") / traced_steps);
    report->Layer("core.heads.ms", total("core.heads") / traced_steps);
    report->Layer("tensor.backward_ms", total("tensor.backward") / traced_steps);
    report->Layer("nn.optim.ms", total("nn.optim") / traced_steps);
    report->Layer("bench.step.coverage", coverage);
    const double traced_sps = traced_steps / (traced_ms * 1e-3);
    report->Layer("trace.overhead_pct",
                  OverheadPct(1.0 / traced_sps, 1.0 / steps_per_s));
    report->Layer("trace.spans", static_cast<double>(spans.size()));
    ReportSetupLayers(report, setup_spans);
    report->Detail("traced_train_steps_per_s", traced_sps, "steps/s", "higher",
                   static_cast<int64_t>(traced_steps));

    WriteTrace(opt, setup_spans, spans);
  }
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB", "lower", 1);
}

}  // namespace perfbench
