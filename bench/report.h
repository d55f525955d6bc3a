#ifndef CALM_BENCH_REPORT_H_
#define CALM_BENCH_REPORT_H_

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/thread_pool.h"

namespace calm::bench {

// Tiny reporting helper for the reproduction harnesses: prints sections and
// verdict rows, tracks failures, and returns a process exit code. Each bench
// binary re-derives one figure/theorem of the paper and prints the claims it
// verified. When EnableJson is set (the --json flag), Finish additionally
// writes the verdicts plus any Metric values (wall-clock, speedups, thread
// count) as a JSON document, so CI can archive the perf trajectory.
//
// The JSON document is built with base/json — the same serializer the stats
// structs (EvalStatsToJson, RunStatsToJson) and the metrics snapshot use —
// and the human-readable Stats lines are printed by walking that same JSON
// object, so the two outputs cannot disagree.
class Report {
 public:
  explicit Report(const std::string& title)
      : title_(title), start_(std::chrono::steady_clock::now()) {
    std::printf("================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================\n");
  }

  // Writes a JSON summary to `path` when Finish runs (empty = disabled).
  void EnableJson(std::string path) { json_path_ = std::move(path); }

  void Section(const std::string& name) {
    std::printf("\n--- %s ---\n", name.c_str());
  }

  // A free-form line.
  void Line(const char* format, ...) __attribute__((format(printf, 2, 3))) {
    va_list args;
    va_start(args, format);
    std::vprintf(format, args);
    va_end(args);
    std::printf("\n");
  }

  // A verified claim: prints ok/FAIL and records the verdict.
  void Check(const std::string& claim, bool ok, const std::string& detail = "") {
    std::printf("  [%s] %s%s%s\n", ok ? " ok " : "FAIL", claim.c_str(),
                detail.empty() ? "" : " — ", detail.c_str());
    checks_.push_back({claim, ok});
    ++total_;
    if (!ok) {
      ++failed_;
      failures_.push_back(claim);
    }
  }

  // Records a named numeric metric (printed and included in the JSON).
  void Metric(const std::string& name, double value,
              const std::string& unit = "") {
    std::printf("  metric %s = %.6g%s%s\n", name.c_str(), value,
                unit.empty() ? "" : " ", unit.c_str());
    metrics_.push_back({name, value});
  }

  // Records a named stats object (EvalStatsToJson, RunStatsToJson, a metrics
  // snapshot slice, ...). The human-readable k=v line is rendered from the
  // very object that lands in the JSON report under "stats", so the console
  // and --json outputs share one source of truth.
  void Stats(const std::string& name, const Json& object) {
    std::string line;
    for (const auto& [key, value] : object.members()) {
      if (!line.empty()) line += ' ';
      line += key + "=";
      if (value.is_int()) {
        line += std::to_string(value.int_value());
      } else if (value.is_number()) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", value.double_value());
        line += buf;
      } else if (value.is_string()) {
        line += value.string_value();
      } else {
        line += value.Dump(-1);
      }
    }
    std::printf("  stats %s: %s\n", name.c_str(), line.c_str());
    stats_.emplace_back(name, object);
  }

  // Prints the summary; returns 0 iff every check passed and
  // `artifacts_written` (WriteObservability's result).
  int Finish(bool artifacts_written = true) {
    std::printf("\n%zu/%zu claims verified", total_ - failed_, total_);
    if (failed_ > 0) {
      std::printf("; FAILED:\n");
      for (const std::string& f : failures_) std::printf("  - %s\n", f.c_str());
    } else {
      std::printf(".\n");
    }
    if (!json_path_.empty()) WriteJson();
    return failed_ == 0 && artifacts_written ? 0 : 1;
  }

 private:
  struct CheckRecord {
    std::string claim;
    bool ok;
  };
  struct MetricRecord {
    std::string name;
    double value;
  };

  void WriteJson() {
    double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    Json doc = Json::Object();
    doc.Set("title", Json::Str(title_));
    doc.Set("threads", Json::Uint(DefaultThreads()));
    doc.Set("wall_ms", Json::Double(wall_ms));
    doc.Set("passed", Json::Uint(total_ - failed_));
    doc.Set("failed", Json::Uint(failed_));
    Json metrics = Json::Object();
    for (const MetricRecord& m : metrics_) {
      metrics.Set(m.name, Json::Double(m.value));
    }
    doc.Set("metrics", std::move(metrics));
    Json stats = Json::Object();
    for (const auto& [name, object] : stats_) stats.Set(name, object);
    doc.Set("stats", std::move(stats));
    Json checks = Json::Array();
    for (const CheckRecord& c : checks_) {
      Json check = Json::Object();
      check.Set("claim", Json::Str(c.claim));
      check.Set("ok", Json::Bool(c.ok));
      checks.Append(std::move(check));
    }
    doc.Set("checks", std::move(checks));

    std::string text = doc.Dump(2);
    std::FILE* f = std::fopen(json_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write JSON report to %s\n",
                   json_path_.c_str());
      return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("JSON report written to %s\n", json_path_.c_str());
  }

  std::string title_;
  std::string json_path_;
  std::chrono::steady_clock::time_point start_;
  size_t total_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<CheckRecord> checks_;
  std::vector<MetricRecord> metrics_;
  std::vector<std::pair<std::string, Json>> stats_;
};

}  // namespace calm::bench

#endif  // CALM_BENCH_REPORT_H_
