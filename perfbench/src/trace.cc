#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<int32_t> open;  ///< Indices of the spans still open.
  int64_t request = -1;
  int32_t tid = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
// Owned globally so spans outlive the threads that recorded them.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer* Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    local = g_buffers.back().get();
    local->tid = static_cast<int32_t>(g_buffers.size());
    local->spans.reserve(1 << 14);
  }
  return local;
}

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& b : g_buffers) b->spans.clear();
}

void Tracer::SetRequest(int64_t request) { Local()->request = request; }

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    const auto offset = static_cast<int32_t>(all.size());
    for (Span s : b->spans) {
      if (s.end_ns == 0) continue;  // still open: not part of this run
      if (s.parent >= 0) s.parent += offset;
      all.push_back(s);
    }
  }
  return all;
}

std::map<std::string, SpanSummary> Tracer::Summarize(
    const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    SpanSummary& sum = out[spans[i].name];
    sum.dur_ms.push_back(ms);
    sum.total_ms += ms;
    sum.self_ms += ms - child_ms[i];
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::vector<Span>& spans,
                              const std::string& other_data_json,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
               "\"traceEvents\":[",
               other_data_json.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%lld}}",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!Tracer::enabled()) return;
  ThreadBuffer* b = Local();
  Span s;
  s.name = name;
  s.request = b->request;
  s.tid = b->tid;
  s.parent = b->open.empty() ? -1 : b->open.back();
  index_ = static_cast<int64_t>(b->spans.size());
  b->open.push_back(static_cast<int32_t>(index_));
  s.start_ns = NowNs();
  b->spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  const int64_t end = NowNs();
  ThreadBuffer* b = Local();
  b->spans[static_cast<size_t>(index_)].end_ns = end;
  b->open.pop_back();
}

}  // namespace perfbench
