#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<int64_t>(v.size());
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<size_t>(std::ceil(q * n));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
  };
  s.p50 = at(0.50);
  s.p90 = at(0.90);
  s.p99 = at(0.99);
  s.max = v.back();
  return s;
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string AttributionJson(const Options& opt) {
#ifdef _OPENMP
  const std::string openmp = "on (_OPENMP " + std::to_string(_OPENMP) + ")";
#else
  const std::string openmp = "off";
#endif
  return "{\"cpu_model\":" + JsonString(CpuModel()) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
         ",\"openmp\":" + JsonString(openmp) +
         ",\"git_commit\":" + JsonString(opt.commit) +
         ",\"workload\":" + JsonString(opt.workload) +
         ",\"seed\":" + std::to_string(opt.seed) +
         ",\"seconds\":" + Num(opt.seconds) +
         ",\"trace\":" + (opt.trace ? "true" : "false") +
         ",\"tiny\":" + (opt.tiny ? "true" : "false") + "}";
}

const std::vector<LayerSpec>& PerLayerCatalog() {
  static const std::vector<LayerSpec> catalog = {
      {"traj.match.p50_ms", "ms", "lower"},
      {"traj.match.p99_ms", "ms", "lower"},
      {"traj.match.calls", "count", "higher"},
      {"traj.match.failed", "count", "lower"},
      {"serve.service.encode_p50_ms", "ms", "lower"},
      {"serve.service.encode_p99_ms", "ms", "lower"},
      {"serve.service.coalescing", "req/batch", "higher"},
      {"serve.service.padding_efficiency", "ratio", "higher"},
      {"serve.hnsw.query_p50_ms", "ms", "lower"},
      {"serve.hnsw.query_p99_ms", "ms", "lower"},
      {"serve.hnsw.rows", "count", "higher"},
      {"roadnet.ch.route_p50_ms", "ms", "lower"},
      {"roadnet.ch.route_p99_ms", "ms", "lower"},
      {"bench.queue_wait.p50_ms", "ms", "lower"},
      {"bench.queue_wait.p99_ms", "ms", "lower"},
      {"loadgen.late.p99_ms", "ms", "lower"},
      {"loadgen.late.max_ms", "ms", "lower"},
      {"serve.stream.match.completed", "count", "higher"},
      {"serve.stream.match.failed", "count", "lower"},
      {"serve.stream.match.retried", "count", "lower"},
      {"serve.stream.match.dropped", "count", "lower"},
      {"serve.stream.match.p50_ms", "ms", "lower"},
      {"serve.stream.match.p95_ms", "ms", "lower"},
      {"serve.stream.match.queue_depth_max", "count", "lower"},
      {"serve.stream.embed.completed", "count", "higher"},
      {"serve.stream.embed.failed", "count", "lower"},
      {"serve.stream.embed.retried", "count", "lower"},
      {"serve.stream.embed.dropped", "count", "lower"},
      {"serve.stream.embed.p50_ms", "ms", "lower"},
      {"serve.stream.embed.p95_ms", "ms", "lower"},
      {"serve.stream.embed.queue_depth_max", "count", "lower"},
      {"serve.stream.upsert.completed", "count", "higher"},
      {"serve.stream.upsert.failed", "count", "lower"},
      {"serve.stream.upsert.retried", "count", "lower"},
      {"serve.stream.upsert.dropped", "count", "lower"},
      {"serve.stream.upsert.p50_ms", "ms", "lower"},
      {"serve.stream.upsert.p95_ms", "ms", "lower"},
      {"serve.stream.upsert.queue_depth_max", "count", "lower"},
      {"serve.stream.push_blocked_ms", "ms", "lower"},
      {"serve.stream.freshness.p50_ms", "ms", "lower"},
      {"serve.stream.freshness.p99_ms", "ms", "lower"},
      {"data.loader.next_ms", "ms", "lower"},
      {"core.tpe_gat.ms", "ms", "lower"},
      {"core.encoder.forward_ms", "ms", "lower"},
      {"core.heads.ms", "ms", "lower"},
      {"tensor.backward_ms", "ms", "lower"},
      {"nn.optim.ms", "ms", "lower"},
      {"bench.step.coverage", "ratio", "higher"},
      {"setup.world_s", "s", "lower"},
      {"setup.ch_build_s", "s", "lower"},
      {"setup.encoder_load_s", "s", "lower"},
      {"setup.prefill_embed_s", "s", "lower"},
      {"setup.index_build_s", "s", "lower"},
      {"trace.overhead_pct", "%", "lower"},
      {"trace.spans", "count", "higher"},
  };
  return catalog;
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, const std::string& better,
                      int64_t samples) {
  end_to_end_[name] = {value, unit, better, samples};
}

void Report::Layer(const std::string& name, double value) {
  for (const LayerSpec& spec : PerLayerCatalog()) {
    if (name == spec.name) {
      per_layer_[name] = {value, spec.unit, spec.better, 0};
      return;
    }
  }
  std::fprintf(stderr, "perfbench: per-layer metric %s is not in the catalog\n",
               name.c_str());
  std::abort();
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit, const std::string& better,
                    int64_t samples) {
  detail_[name] = {value, unit, better, samples};
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  std::fprintf(stderr, "check %-28s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

void Report::Spans(const std::map<std::string, SpanSummary>& spans) {
  spans_json_ = "{";
  for (const auto& [name, sum] : spans) {
    if (spans_json_.size() > 1) spans_json_ += ",";
    spans_json_ += JsonString(name) +
                   ":{\"calls\":" + std::to_string(sum.dur_ms.size()) +
                   ",\"total_ms\":" + Num(sum.total_ms) +
                   ",\"self_ms\":" + Num(sum.self_ms) + "}";
  }
  spans_json_ += "}";
}

void Report::FillMissingLayers() {
  for (const LayerSpec& spec : PerLayerCatalog()) {
    if (per_layer_.count(spec.name) == 0) Layer(spec.name, 0.0);
  }
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const auto& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

std::string Report::Json(const Options& opt) const {
  const auto metrics = [](const std::map<std::string, Metric>& m) {
    std::string out = "{";
    for (const auto& [name, v] : m) {
      if (out.size() > 1) out += ",";
      out += JsonString(name) + ":{\"value\":" + Num(v.value) +
             ",\"unit\":" + JsonString(v.unit) +
             ",\"better\":" + JsonString(v.better);
      if (v.samples > 0) out += ",\"samples\":" + std::to_string(v.samples);
      out += "}";
    }
    return out + "}";
  };
  std::string checks = "[";
  for (const auto& c : checks_) {
    if (checks.size() > 1) checks += ",";
    checks += "{\"name\":" + JsonString(c.name) +
              ",\"ok\":" + (c.ok ? "true" : "false") +
              ",\"detail\":" + JsonString(c.detail) + "}";
  }
  checks += "]";
  return "{\"correct\":" + std::string(correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) +
         ",\"attribution\":" + AttributionJson(opt) +
         ",\"end_to_end\":" + metrics(end_to_end_) +
         ",\"per_layer\":" + metrics(per_layer_) +
         ",\"detail\":" + metrics(detail_) + ",\"spans\":" + spans_json_ +
         ",\"checks\":" + checks + "}";
}

void LayerLatency(Report* r, const std::map<std::string, SpanSummary>& spans,
                  const char* span, const std::string& prefix) {
  const auto it = spans.find(span);
  const Summary s =
      it == spans.end() ? Summary{} : Summarize(it->second.dur_ms);
  r->Layer(prefix + "p50_ms", s.p50);
  r->Layer(prefix + "p99_ms", s.p99);
}

}  // namespace perfbench
