#ifndef CALM_BENCH_FLAGS_H_
#define CALM_BENCH_FLAGS_H_

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "base/thread_pool.h"
#include "base/trace.h"

namespace calm::bench {

// Flags shared by the bench binaries:
//   --threads N       worker threads for the parallel checkers (also settable
//                     via the CALM_THREADS environment variable; the flag wins)
//   --json PATH       write the report's verdicts/metrics as JSON to PATH
//   --domain_bump N   widen the exhaustive searches' domain_size by N beyond
//                     the seed bounds (the CI "deep sweep" job passes 1; only
//                     affordable with the symmetry reduction on)
//   --metrics_out P   enable the metrics registry for the run and write its
//                     JSON snapshot to P on exit (WriteObservability)
//   --trace_out P     enable span tracing for the run and write a Chrome
//                     trace_event file to P on exit (load in chrome://tracing
//                     or ui.perfetto.dev; tools/trace_view.py summarizes it)
//   --checkpoint_dir D  journal every exhaustive sweep's progress into D
//                     (monotonicity/sweep_checkpoint.h) so a killed run —
//                     SIGINT/SIGTERM with InstallCancelHandlers, or a hard
//                     crash — resumes instead of restarting
//
// The parser is strict: an argument starting with "--" must be one of the
// flags above (unique prefixes are accepted as abbreviations; an ambiguous
// prefix is an error), a google-benchmark flag ("--benchmark_..."), or a
// binary-specific flag the caller allowlists via `passthrough`. Anything
// else exits 2 with the usage below — a typo never silently becomes a
// default-valued run.
struct Flags {
  size_t threads = 0;     // 0 = CALM_THREADS / hardware default
  std::string json_path;  // empty = no JSON output
  size_t domain_bump = 0;
  std::string metrics_out;  // empty = metrics registry stays disabled
  std::string trace_out;    // empty = tracing stays disabled
  std::string checkpoint_dir;  // empty = sweeps run without a journal
};

namespace internal {

// One row per flag: a string sink or a numeric sink (positive when the
// value must be > 0). Both "--name value" and "--name=value" forms work.
struct FlagSpec {
  const char* name;
  const char* value_name;
  const char* help;
  std::string* str;
  size_t* num;
  bool positive;
};

inline std::vector<FlagSpec> FlagSpecs(Flags* flags) {
  return {
      {"--threads", "N", "checker worker threads (default: CALM_THREADS)",
       nullptr, &flags->threads, true},
      {"--domain_bump", "N", "widen exhaustive domain_size by N", nullptr,
       &flags->domain_bump, false},
      {"--json", "PATH", "write the report as JSON", &flags->json_path,
       nullptr, false},
      {"--metrics_out", "PATH", "enable metrics, write JSON snapshot on exit",
       &flags->metrics_out, nullptr, false},
      {"--trace_out", "PATH", "enable tracing, write Chrome trace on exit",
       &flags->trace_out, nullptr, false},
      {"--checkpoint_dir", "DIR",
       "journal sweep progress into DIR; a rerun resumes",
       &flags->checkpoint_dir, nullptr, false},
  };
}

inline void PrintUsage(std::FILE* out, const char* argv0,
                       const std::vector<FlagSpec>& specs,
                       std::initializer_list<const char*> passthrough) {
  std::fprintf(out, "usage: %s [flags]\n\nflags:\n", argv0);
  for (const FlagSpec& spec : specs) {
    std::fprintf(out, "  %s %-5s %s\n", spec.name, spec.value_name, spec.help);
  }
  for (const char* extra : passthrough) {
    std::fprintf(out, "  %s (binary-specific; see the file header)\n", extra);
  }
  std::fprintf(out,
               "  --benchmark_... google-benchmark flags pass through\n"
               "  --help          this message\n");
}

}  // namespace internal

// Parses and strips the shared flags from argv, leaving only allowlisted
// arguments (google-benchmark's --benchmark_* and the caller's `passthrough`
// names, with their values) in place; applies --threads via
// SetDefaultThreads and switches metrics/tracing on when an output path asks
// for them. Exits 2 with a usage message on an unknown or ambiguous flag or
// a malformed value.
inline Flags ParseFlags(int* argc, char** argv,
                        std::initializer_list<const char*> passthrough = {}) {
  Flags flags;
  const std::vector<internal::FlagSpec> specs = internal::FlagSpecs(&flags);
  auto usage_and_exit = [&](const char* fmt, const char* detail) {
    std::fprintf(stderr, fmt, detail);
    std::fprintf(stderr, "\n\n");
    internal::PrintUsage(stderr, argv[0], specs, passthrough);
    std::exit(2);
  };

  int out = 1;
  for (int in = 1; in < *argc; ++in) {
    const char* arg = argv[in];
    if (std::strncmp(arg, "--", 2) != 0) {
      argv[out++] = argv[in];  // positional; not ours to police
      continue;
    }
    // Split "--name=value".
    std::string name(arg);
    std::string inline_value;
    bool has_inline = false;
    if (size_t eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name.resize(eq);
      has_inline = true;
    }
    if (name == "--help") {
      internal::PrintUsage(stdout, argv[0], specs, passthrough);
      std::exit(0);
    }
    if (name.compare(0, 12, "--benchmark_") == 0) {
      argv[out++] = argv[in];  // google-benchmark parses these itself
      continue;
    }
    bool is_passthrough = false;
    for (const char* extra : passthrough) {
      if (name == extra) {
        is_passthrough = true;
        break;
      }
    }
    if (is_passthrough) {
      // Keep the flag and (for the two-token form) its value for the binary.
      argv[out++] = argv[in];
      if (!has_inline && in + 1 < *argc) argv[out++] = argv[++in];
      continue;
    }

    // Ours: exact name first, then a unique-prefix abbreviation.
    const internal::FlagSpec* hit = nullptr;
    for (const internal::FlagSpec& spec : specs) {
      if (name == spec.name) {
        hit = &spec;
        break;
      }
    }
    if (hit == nullptr) {
      std::vector<const internal::FlagSpec*> matches;
      for (const internal::FlagSpec& spec : specs) {
        if (std::strncmp(spec.name, name.c_str(), name.size()) == 0) {
          matches.push_back(&spec);
        }
      }
      if (matches.size() > 1) {
        std::string listed;
        for (const internal::FlagSpec* m : matches) {
          if (!listed.empty()) listed += ", ";
          listed += m->name;
        }
        usage_and_exit("ambiguous flag %s",
                       (name + " (matches " + listed + ")").c_str());
      }
      if (matches.empty()) usage_and_exit("unknown flag %s", name.c_str());
      hit = matches[0];
    }

    const char* value = nullptr;
    if (has_inline) {
      value = inline_value.c_str();
    } else if (in + 1 < *argc) {
      value = argv[++in];
    } else {
      usage_and_exit("%s expects a value", hit->name);
    }
    if (hit->str != nullptr) {
      *hit->str = value;
      continue;
    }
    char* end = nullptr;
    unsigned long n = std::strtoul(value, &end, 10);
    if (end == value || *end != '\0' || (hit->positive && n == 0)) {
      std::fprintf(stderr, "%s expects a %s integer, got %s\n", hit->name,
                   hit->positive ? "positive" : "non-negative", value);
      std::exit(2);
    }
    *hit->num = static_cast<size_t>(n);
  }
  *argc = out;
  if (flags.threads != 0) SetDefaultThreads(flags.threads);
  if (!flags.metrics_out.empty()) SetMetricsEnabled(true);
  if (!flags.trace_out.empty()) Trace::SetEnabled(true);
  return flags;
}

// Writes the artifacts the observability flags asked for. Call once, after
// the workload (typically as report.Finish's argument). Prints a "written"
// line per artifact that landed whole; returns false, after saying why on
// stderr, when one could not be opened, written or closed, so the binary
// exits non-zero instead of leaving a truncated file behind a success line.
[[nodiscard]] inline bool WriteObservability(const Flags& flags) {
  bool ok = true;
  if (!flags.metrics_out.empty()) {
    std::string text = MetricRegistry::Global().Snapshot().Dump(2);
    std::FILE* f = std::fopen(flags.metrics_out.c_str(), "w");
    bool written = f != nullptr &&
                   std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                   std::fputc('\n', f) != EOF;
    if (f != nullptr && std::fclose(f) != 0) written = false;
    if (!written) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   flags.metrics_out.c_str());
      ok = false;
    } else {
      std::printf("metrics snapshot written to %s\n",
                  flags.metrics_out.c_str());
    }
  }
  if (!flags.trace_out.empty()) {
    Status s = Trace::WriteChromeTrace(flags.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.message().c_str());
      ok = false;
    } else {
      size_t dropped = Trace::DroppedCount();
      std::printf("trace written to %s (%zu events%s)\n",
                  flags.trace_out.c_str(), Trace::EventCount(),
                  dropped == 0
                      ? ""
                      : (", " + std::to_string(dropped) + " dropped").c_str());
    }
  }
  return ok;
}

// --- cooperative cancellation ----------------------------------------------
//
// InstallCancelHandlers routes SIGINT/SIGTERM into a flag the sweeps poll
// (ExhaustiveOptions::cancel / PreservationOptions::cancel). An interrupted
// sweep returns kDeadlineExceeded with everything finished so far already
// fsync'd in the checkpoint journal; the bench then calls ExitIfCancelled,
// which flushes the metrics/trace artifacts and exits 130 (the conventional
// "died on SIGINT" code), so a kill mid-run still leaves a resumable
// checkpoint AND the observability outputs.

inline std::atomic<bool>& CancelFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}

namespace internal {
inline void OnCancelSignal(int) {
  CancelFlag().store(true, std::memory_order_relaxed);
}
}  // namespace internal

inline void InstallCancelHandlers() {
  std::signal(SIGINT, internal::OnCancelSignal);
  std::signal(SIGTERM, internal::OnCancelSignal);
}

// Call after any sweep that may have been cancelled: flushes observability
// artifacts and exits 130 if a cancel signal arrived.
inline void ExitIfCancelled(const Flags& flags) {
  if (!CancelFlag().load(std::memory_order_relaxed)) return;
  if (flags.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "interrupted (no --checkpoint_dir; progress not saved)\n");
  } else {
    std::fprintf(stderr, "interrupted; resume with --checkpoint_dir %s\n",
                 flags.checkpoint_dir.c_str());
  }
  (void)WriteObservability(flags);  // 130 says "interrupted" either way
  std::exit(130);
}

}  // namespace calm::bench

#endif  // CALM_BENCH_FLAGS_H_
