// Repository benchmark harness. Runs one workload for a fixed time and prints
// the run report (metrics, checks, attribution) as one JSON line, the last
// line of standard output. perfbench/run.py builds this binary and drives it;
// see perfbench/README.md.
//
//   perfbench --workload query_mix|stream_ingest|pretrain --seed N
//             --seconds S --trace 0|1 [--tiny] [--commit SHA]
//             [--trace-out PATH]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

std::vector<double> PoissonArrivals(double rate, double duration,
                                    start::common::Rng* rng) {
  std::vector<double> t;
  double now = 0.0;
  while (true) {
    now += -std::log(1.0 - rng->Uniform()) / rate;
    if (now >= duration) break;
    t.push_back(now);
  }
  return t;
}

void SleepUntil(int64_t t0_ns, double offset_s) {
  const int64_t due = t0_ns + static_cast<int64_t>(offset_s * 1e9);
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
}

bool SetupBudgetLeft(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return total < kSetupBudgetS;
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

void ReportSetupLayers(Report* report, const std::vector<Span>& setup_spans) {
  for (const auto& [name, sum] : Tracer::Summarize(setup_spans)) {
    report->Layer(name + "_s", sum.total_ms * 1e-3);
  }
}

void WriteTrace(const Options& opt, const std::vector<Span>& setup_spans,
                const std::vector<Span>& spans) {
  if (opt.trace_path.empty()) return;
  std::vector<Span> all = setup_spans;
  all.insert(all.end(), spans.begin(), spans.end());
  if (!Tracer::WriteChromeTrace(all, AttributionJson(opt), opt.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_path.c_str());
    std::exit(2);
  }
}

double OverheadPct(double traced, double untraced) {
  return untraced == 0.0 ? 0.0 : 100.0 * (traced - untraced) / untraced;
}

namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "query_mix|stream_ingest|pretrain --seed N --seconds S "
               "--trace 0|1 [--tiny] [--commit SHA] [--trace-out PATH]\n",
               msg);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--commit") {
      opt.commit = value();
    } else if (a == "--trace-out") {
      opt.trace_path = value();
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) Usage("--seconds must be positive");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = Parse(argc, argv);
  std::filesystem::create_directories(".bench_out");
  Report report;
  if (opt.workload == "query_mix") {
    RunQueryMix(opt, &report);
  } else if (opt.workload == "stream_ingest") {
    RunStreamIngest(opt, &report);
  } else if (opt.workload == "pretrain") {
    RunPretrain(opt, &report);
  } else {
    Usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.trace) report.FillMissingLayers();
  std::printf("%s\n", report.Json(opt).c_str());
  return 0;
}
