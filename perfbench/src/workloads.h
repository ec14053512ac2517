// The three workloads and the helpers they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "report.h"

namespace perfbench {

/// GPS trace -> map matching -> top-k (encoder + HNSW) or ETA (CH), open
/// loop, Poisson arrivals.
void RunQueryMix(const Options& opt, Report* report);
/// Streaming ingest (GPS -> match -> int8 embed -> HNSW upsert) beside
/// open-loop kNN reads on the growing index.
void RunStreamIngest(const Options& opt, Report* report);
/// core::Pretrain steps on a fixed corpus, closed loop.
void RunPretrain(const Options& opt, Report* report);

/// Arrival offsets (seconds from phase start) of a Poisson process.
std::vector<double> PoissonArrivals(double rate, double duration,
                                    start::common::Rng* rng);

/// Sleeps until `t0_ns + offset_s`.
void SleepUntil(int64_t t0_ns, double offset_s);

double Median(std::vector<double> v);

/// Set-up repetitions stop once set-up has taken this long in total, so a
/// run whose set-up is pathologically slow still ends in time.
constexpr double kSetupBudgetS = 30.0;

/// True while another set-up repetition fits the budget.
bool SetupBudgetLeft(const std::vector<double>& setup_s);

/// Builds a system up to `reps` times (see kSetupBudgetS), tearing the
/// previous one down first, and returns the last; `setup_s` receives each
/// build's wall time.
template <class Build>
auto RepeatSetup(int reps, Build build, std::vector<double>* setup_s) {
  decltype(build()) sys;
  for (int rep = 0; rep < reps && SetupBudgetLeft(*setup_s); ++rep) {
    sys.reset();
    const int64_t start = NowNs();
    sys = build();
    setup_s->push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  return sys;
}

/// Reports the total of each "setup.<phase>" span as "setup.<phase>_s".
void ReportSetupLayers(Report* report, const std::vector<Span>& setup_spans);

/// Writes the set-up and traced-phase spans to `opt.trace_path` with the
/// run's attribution.
void WriteTrace(const Options& opt, const std::vector<Span>& setup_spans,
                const std::vector<Span>& spans);

/// Relative change of `traced` against `untraced`, in percent.
double OverheadPct(double traced, double untraced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
