// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each public library call it makes
// (nothing inside the library is instrumented). Spans go to per-thread
// buffers, are written as Chrome trace-event JSON when the run ends, and are
// reduced to per-name durations and self time (a span's duration minus the
// part its child spans cover).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  ///< Static string: a layer boundary name.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t request = -1;  ///< Spans of one request share this id.
  int32_t tid = 0;       ///< Recording thread (index into the buffer list).
  int32_t parent = -1;   ///< Index of the enclosing span in the same thread.
};

/// Per-name reduction of the recorded spans.
struct SpanSummary {
  std::vector<double> dur_ms;  ///< One entry per span, in record order.
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Process-wide switch plus the per-thread buffers. Recording is off until
/// Enable(true); a disabled ScopedSpan costs one relaxed load.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Drops every recorded span (buffers of finished threads included).
  static void Clear();

  /// Every recorded span with `parent` resolved per thread.
  static std::vector<Span> Collect();

  /// Per-name durations and self time.
  static std::map<std::string, SpanSummary> Summarize(
      const std::vector<Span>& spans);

  /// Writes the spans as Chrome trace-event JSON ("X" events, microsecond
  /// timestamps relative to the first span) with `other_data_json` (a JSON
  /// object) under "otherData". Returns false on an I/O error.
  static bool WriteChromeTrace(const std::vector<Span>& spans,
                               const std::string& other_data_json,
                               const std::string& path);

  /// Request id attached to spans this thread opens from now on.
  static void SetRequest(int64_t request);
};

/// RAII span; records on destruction when tracing was enabled at open.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;  ///< Slot in this thread's buffer, -1 = not recording.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
