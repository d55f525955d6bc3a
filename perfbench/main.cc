// calm_perfbench: the end-to-end benchmark.
//
//   calm_perfbench --workload survey|deep_sweep|network --seed N
//                  --seconds S --trace 0|1 [--out DIR] [--pinned FILE]
//                  [--commit ID] [--negative-control] [--print-digest]
//
// --trace 0 times whole passes over the workload's items, as a closed loop
// from one client, until S seconds have passed, and prints the end-to-end
// metrics. --trace 1 runs one untraced pass and one traced pass (spans
// around every public call, forwarding wrappers around the queries, the
// metrics registry on) and prints the per-layer metrics and a layer table of
// self times that must reconcile with the traced wall time. The last line of
// stdout is the result as one JSON object; the same result, with the run's
// provenance, is written under --out. Exit code 0 means every oracle held.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "workloads.h"

namespace calm::perfbench {

uint64_t MixSeed(uint64_t seed, uint64_t k) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string Digest(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

// Process-wide engine knobs. A set knob changes what is measured, so the
// benchmark refuses to run under one.
const char* const kKnobs[] = {"CALM_ENGINE", "CALM_INCREMENTAL",
                              "CALM_EVAL_THREADS", "CALM_SIMD_LEVEL",
                              "CALM_THREADS"};
constexpr size_t kSetupsPerPass = 3;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".bench_out";
  std::string pinned = "perfbench/survey_digests.txt";
  std::string commit = "unknown";
  bool negative_control = false;
  bool print_digest = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

std::string Provenance(const Flags& flags) {
  std::string knobs;
  for (const char* knob : kKnobs) {
    const char* v = std::getenv(knob);
    knobs += std::string(knobs.empty() ? "" : ", ") + JsonString(knob) +
             ": " + JsonString(v ? v : "");
  }
  return std::string("{\"nproc\": ") +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"build_type\": " + JsonString(CALM_PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + JsonString("g++ " __VERSION__) +
         ", \"commit\": " + JsonString(flags.commit) + ", \"env\": {" + knobs +
         "}}";
}

class PassRunner {
 public:
  explicit PassRunner(Workload* workload) : w_(workload) {}

  // One pass over every item. Returns the pass's wall time in seconds.
  double Pass(Tracer* tracer, std::vector<double>* latencies_ms) {
    const int64_t t0 = NowNs();
    for (size_t k = 0; k < w_->items(); ++k) {
      std::string why;
      const int64_t start = NowNs();
      bool ok;
      {
        ScopedSpan span(tracer, "bench.item", static_cast<uint32_t>(k));
        ok = w_->Run(k, tracer, &why);
      }
      if (latencies_ms) latencies_ms->push_back((NowNs() - start) / 1e6);
      ++attempted_;
      if (!ok) Fail(w_->ItemName(k) + ": " + why);
    }
    const double wall = (NowNs() - t0) / 1e9;
    std::string why;
    const size_t pass_failed = w_->EndPass(&why);
    for (size_t n = 0; n < pass_failed; ++n) Fail("pass: " + why);
    return wall;
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  void Fail(const std::string& why) {
    if (failed_++ < 5) std::fprintf(stderr, "FAIL %s\n", why.c_str());
  }

  Workload* w_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

uint64_t CounterSum(const Json& snapshot, const std::string& name) {
  uint64_t total = 0;
  const Json* counters = snapshot.Find("counters");
  if (counters == nullptr) return 0;
  for (const Json& c : counters->items()) {
    const Json* n = c.Find("name");
    const Json* v = c.Find("value");
    if (n && v && n->string_value() == name) total += v->uint_value();
  }
  return total;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<Metric> TracedMetrics(PassRunner* runner, Workload* w,
                                  const Flags& flags, bool* reconciled) {
  // Untraced at the pool's thread count: pool utilization.
  const size_t pool_threads = w->pool_threads();
  w->SetThreads(pool_threads);
  double cpu0 = CpuSeconds();
  const double wall_mt = runner->Pass(nullptr, nullptr);
  const double pool_util = Ratio(CpuSeconds() - cpu0,
                                 wall_mt * static_cast<double>(pool_threads));
  // Untraced and traced at one thread: trace overhead and attribution.
  w->SetThreads(1);
  const double wall_untraced =
      pool_threads == 1 ? wall_mt : runner->Pass(nullptr, nullptr);

  MetricRegistry::Global().ResetValues();
  SetMetricsEnabled(true);
  w->ResetLayerMetrics();
  Tracer tracer;
  const double wall_traced = runner->Pass(&tracer, nullptr);
  SetMetricsEnabled(false);
  const Json snapshot = MetricRegistry::Global().Snapshot();

  const LayerTable table = BuildLayerTable(tracer);
  const double traced_ms = wall_traced * 1e3;
  double rows_ms = 0;
  for (const auto& [name, ms] : table.self_ms) rows_ms += ms;
  const double gap = std::fabs(traced_ms - rows_ms) / traced_ms;
  *reconciled = gap <= 0.05 && tracer.unattributed_calls() == 0;

  std::printf("\nlayer table (%s, traced pass at 1 thread, self time):\n",
              flags.workload.c_str());
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, ms] : table.self_ms) rows.emplace_back(ms, name);
  std::sort(rows.rbegin(), rows.rend());
  for (const auto& [ms, name] : rows) {
    std::printf("  %-28s %10.2f ms  %5.1f%%\n", name.c_str(), ms,
                100 * ms / traced_ms);
  }
  std::printf("  %-28s %10.2f ms  (rows sum %.2f ms, gap %.2f%%)\n",
              "traced wall", traced_ms, rows_ms, 100 * gap);
  std::printf("  untraced pass %.2f ms at 1 thread, %.2f ms at %zu threads\n",
              wall_untraced * 1e3, wall_mt * 1e3, pool_threads);
  if (tracer.unattributed_calls() != 0) {
    std::printf("  %llu wrapper calls fell outside any span\n",
                static_cast<unsigned long long>(tracer.unattributed_calls()));
  }
  std::filesystem::create_directories(flags.out);
  const std::string spans_path = flags.out + "/spans-" + flags.workload +
                                 "-seed" + std::to_string(flags.seed) +
                                 ".jsonl";
  Status written = tracer.WriteJsonLines(spans_path);
  std::printf("  spans: %s\n", written.ok() ? spans_path.c_str()
                                             : written.ToString().c_str());

  auto total = [&](const char* name) {
    auto it = table.total_ms.find(name);
    return it == table.total_ms.end() ? 0.0 : it->second;
  };
  auto self = [&](const char* name) {
    auto it = table.self_ms.find(name);
    return it == table.self_ms.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> v;
  v["datalog.prepare_ms"] = total("datalog.prepare");
  w->LayerMetrics(&v);  // set-up layers and run statistics
  const double hits = CounterSum(snapshot, "calm.checker.cache_hits");
  const double misses = CounterSum(snapshot, "calm.checker.cache_misses");
  const double lhits = CounterSum(snapshot, "calm.ladder.shared_cache_hits");
  const double lmisses =
      CounterSum(snapshot, "calm.ladder.shared_cache_misses");
  const double overlays =
      CounterSum(snapshot, "calm.eval.incremental.overlays");
  const double fallbacks =
      CounterSum(snapshot, "calm.eval.incremental.fallbacks");

  std::vector<Metric> m = {
      {"workload.generate_ms", v["workload.generate_ms"], "ms"},
      {"workload.classify_ms", total("workload.classify"), "ms"},
      {"datalog.prepare_ms", v["datalog.prepare_ms"], "ms"},
      {"monotonicity.ladder_ms", total("monotonicity.ladder"), "ms"},
      {"monotonicity.ladder_nosym_ms", total("monotonicity.ladder_nosym"),
       "ms"},
      {"monotonicity.preservation_ms", total("monotonicity.preservation"),
       "ms"},
      {"monotonicity.hinj_ms", total("monotonicity.hinj"), "ms"},
      {"datalog.fixpoints", static_cast<double>(table.fixpoints), "count"},
      {"datalog.fixpoint_ms", self("datalog.fixpoint"), "ms"},
      {"datalog.union_checks", static_cast<double>(table.union_checks),
       "count"},
      {"datalog.union_check_ms", self("datalog.union_check"), "ms"},
      {"monotonicity.self_ms",
       self("monotonicity.ladder") + self("monotonicity.ladder_nosym") +
           self("monotonicity.preservation") + self("monotonicity.hinj") +
           self("monotonicity.verify"),
       "ms"},
      {"monotonicity.pairs_checked",
       static_cast<double>(CounterSum(snapshot, "calm.checker.pairs_checked")),
       "count"},
      {"monotonicity.instances_examined",
       static_cast<double>(
           CounterSum(snapshot, "calm.checker.instances_examined")),
       "count"},
      {"monotonicity.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"monotonicity.ladder_cache_hit_ratio", Ratio(lhits, lhits + lmisses),
       "ratio"},
      {"datalog.overlay_fallback_ratio", Ratio(fallbacks, overlays), "ratio"},
      {"base.pool_cpu_util", pool_util, "ratio"},
      {"transducer.run_async_ms", total("transducer.run_async"), "ms"},
      {"transducer.run_fault_ms", total("transducer.run_fault"), "ms"},
      {"transducer.run_bsp_ms", total("transducer.run_bsp"), "ms"},
      {"transducer.self_ms",
       self("transducer.prepare") + self("transducer.run_async") +
           self("transducer.run_fault") + self("transducer.run_bsp"),
       "ms"},
      {"net.transitions", v["net.transitions"], "count"},
      {"net.messages_sent", v["net.messages_sent"], "count"},
      {"net.heartbeat_ratio", v["net.heartbeat_ratio"], "ratio"},
      {"net.faults_injected", v["net.faults_injected"], "count"},
      {"bench.reconcile_gap", gap, "ratio"},
      {"bench.trace_overhead", wall_traced / wall_untraced - 1, "ratio"},
  };
  return m;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "calm_perfbench: %s\nusage: calm_perfbench --workload "
               "survey|deep_sweep|network --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--pinned FILE] [--commit ID] "
               "[--negative-control] [--print-digest]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--negative-control") {
      flags.negative_control = true;
    } else if (arg == "--print-digest") {
      flags.print_digest = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      flags.workload = v;
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      flags.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      flags.trace = std::atoi(v);
    } else if (arg == "--out") {
      flags.out = v;
    } else if (arg == "--pinned") {
      flags.pinned = v;
    } else if (arg == "--commit") {
      flags.commit = v;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  for (const char* knob : kKnobs) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "calm_perfbench: refusing to run with %s set\n",
                   knob);
      return 2;
    }
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "calm_perfbench: refusing to run an unoptimized build\n");
  return 2;
#endif
  if (flags.seconds <= 0 || (flags.trace != 0 && flags.trace != 1)) {
    return Usage("--seconds must be positive and --trace 0 or 1");
  }

  WorkloadOptions options;
  options.negative_control = flags.negative_control;
  options.pinned_digests = flags.pinned;
  std::unique_ptr<Workload> w;
  if (flags.workload == "survey") {
    w = MakeSurvey(options);
  } else if (flags.workload == "deep_sweep") {
    w = MakeDeepSweep(options);
  } else if (flags.workload == "network") {
    w = MakeNetwork(options);
  } else {
    return Usage("unknown workload");
  }

  const std::string provenance = Provenance(flags);
  std::printf("provenance: %s\n", provenance.c_str());

  if (Status s = w->Setup(flags.seed); !s.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    return 1;
  }

  PassRunner runner(w.get());
  if (flags.print_digest) {
    runner.Pass(nullptr, nullptr);
    std::printf("%llu %s\n", static_cast<unsigned long long>(flags.seed),
                w->PassDigest().c_str());
    return runner.failed() == 0 ? 0 : 1;
  }

  std::vector<Metric> metrics;
  bool reconciled = true;
  if (flags.trace == 0) {
    // Whole passes until the time is up. The host is shared and its speed
    // swings by up to half between seconds (a fixed loop shows it), while
    // contention only ever adds time. So each item's latency is its best
    // over the passes, the latency the host gives when it is not contended;
    // throughput is the closed loop's rate at those latencies. Set-up takes
    // milliseconds; it is timed the same way, a few times after every pass,
    // so that its samples too are spread over the run.
    w->SetThreads(1);
    std::vector<double> latencies_ms;
    std::vector<double> pass_s;
    std::vector<double> setup_s;
    double measured = 0;
    while (measured < flags.seconds) {
      pass_s.push_back(runner.Pass(nullptr, &latencies_ms));
      measured += pass_s.back();
      for (size_t r = 0; r < kSetupsPerPass; ++r) {
        const int64_t t0 = NowNs();
        Status s = w->Setup(flags.seed);
        setup_s.push_back((NowNs() - t0) / 1e9);
        if (!s.ok()) {
          std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
          return 1;
        }
      }
    }
    const size_t n = w->items();
    std::vector<double> best_ms(n, 0);
    double best_total_ms = 0;
    for (size_t k = 0; k < n; ++k) {
      best_ms[k] = latencies_ms[k];
      for (size_t p = 1; p < pass_s.size(); ++p) {
        best_ms[k] = std::min(best_ms[k], latencies_ms[p * n + k]);
      }
      best_total_ms += best_ms[k];
    }
    std::string walls;
    for (double s : pass_s) walls += " " + Num(std::round(s * 1e4) / 10);
    std::printf("%s: %zu items/pass, %zu passes in %.3f s; pass ms:%s\n",
                flags.workload.c_str(), n, pass_s.size(), measured,
                walls.c_str());
    std::printf("median pass %.1f ms, best-latency pass %.1f ms\n",
                Quantile(pass_s, 0.5) * 1e3, best_total_ms);
    metrics = {
        {"items_per_s", n / (best_total_ms / 1e3), "1/s"},
        {"item_ms_p50", Quantile(best_ms, 0.5), "ms"},
        {"item_ms_p90", Quantile(best_ms, 0.9), "ms"},
        {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    metrics = TracedMetrics(&runner, w.get(), flags, &reconciled);
  }

  const bool correct = runner.failed() == 0 && reconciled;
  std::printf("\n%-34s %14s  unit\n", "metric", "value");
  for (const Metric& m : metrics) {
    std::printf("%-34s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("fail_ratio %.6g (%zu of %zu items)%s\n",
              Ratio(runner.failed(), runner.attempted()), runner.failed(),
              runner.attempted(),
              reconciled ? "" : "; layer table does not reconcile");

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(runner.attempted()) +
                     ", \"failed\": " + std::to_string(runner.failed()) +
                     ", \"metrics\": {";
  for (size_t n = 0; n < metrics.size(); ++n) {
    json += (n ? ", " : "") + JsonString(metrics[n].name) +
            ": {\"value\": " + Num(metrics[n].value) +
            ", \"unit\": " + JsonString(metrics[n].unit) + "}";
  }
  json += "}}";

  std::filesystem::create_directories(flags.out);
  std::ofstream(flags.out + "/result-" + flags.workload + "-seed" +
                std::to_string(flags.seed) + "-trace" +
                std::to_string(flags.trace) + ".json")
      << "{\"workload\": " << JsonString(flags.workload)
      << ", \"seed\": " << flags.seed << ", \"provenance\": " << provenance
      << ", \"result\": " << json << "}\n";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace calm::perfbench

int main(int argc, char** argv) { return calm::perfbench::Main(argc, argv); }
