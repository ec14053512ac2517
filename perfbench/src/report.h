// Measurement helpers and the run report the harness prints as its last
// line of output (perfbench/run.py turns it into the result line and the
// output file).
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< Smoke-test size: small world, short phases.
  std::string commit = "unknown";
  std::string trace_path;  ///< Chrome trace output (trace runs only).
};

/// Latency sample summary (nearest-rank percentiles).
struct Summary {
  int64_t n = 0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
};

Summary Summarize(std::vector<double> v);

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// Hardware/build attribution as a JSON object.
std::string AttributionJson(const Options& opt);

/// Everything one run measured and checked.
class Report {
 public:
  /// A metric of the BENCHMARK.json end-to-end list.
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                const std::string& better, int64_t samples);
  /// A metric of the BENCHMARK.json per-layer list (unit and direction come
  /// from PerLayerCatalog()).
  void Layer(const std::string& name, double value);
  /// A workload-specific result kept in the output file only.
  void Detail(const std::string& name, double value, const std::string& unit,
              const std::string& better, int64_t samples);
  /// An output check; a failed check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Per-span-name calls, total and self time of a traced phase.
  void Spans(const std::map<std::string, SpanSummary>& spans);
  void CountOps(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Sets every per-layer catalog metric the workload did not report to 0.
  void FillMissingLayers();

  bool correct() const;
  /// One-line JSON of the whole report.
  std::string Json(const Options& opt) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit, better;
    int64_t samples = 0;
  };
  struct CheckResult {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::map<std::string, Metric> end_to_end_, per_layer_, detail_;
  std::vector<CheckResult> checks_;
  std::string spans_json_ = "{}";
  int64_t attempted_ = 0, failed_ = 0;
};

/// Adds the per-layer latency pair "<prefix>p50_ms" / "<prefix>p99_ms" from a
/// span summary (zeros when the layer never ran).
void LayerLatency(Report* r, const std::map<std::string, SpanSummary>& spans,
                  const char* span, const std::string& prefix);

struct LayerSpec {
  const char* name;
  const char* unit;
  const char* better;
};

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// workload reports 0 for a layer it does not exercise.
const std::vector<LayerSpec>& PerLayerCatalog();

std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
