// Fuzz-survey driver: generates N random Datalog¬ programs across the seven
// paper fragments, pushes each through the full classification pipeline
// (fragment oracle, monotonicity ladder + witness audit, differential
// canonicalizer check, preservation sweeps, and the Theorem 4.3/4.4/4.5
// strategy transducers under async / chaos-fault / BSP semantics), and
// persists the classified corpus on the durable WAL. A non-empty corpus
// resumes: already-classified seeds are skipped, so a killed sweep picks up
// where it left off. Exits non-zero on any classifier/engine disagreement.
//
// Flags (besides bench/flags.h's --threads/--json/...):
//   --programs N     programs to survey (default 500)
//   --seed N         base seed; per-program seeds are mixed from it (default 1)
//   --corpus PATH    durable corpus WAL ("calm.corpus"); empty = in-memory
//   --witness_dir D  write shrunk divergence witnesses into D
//   --inject N       1 = also run the mislabeled negative control (default 0)

#include <cstring>
#include <string>

#include "base/thread_pool.h"
#include "bench/flags.h"
#include "bench/report.h"
#include "workload/fuzzer.h"

namespace {
using namespace calm;  // NOLINT
}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(
      &argc, argv, {"--programs", "--seed", "--corpus", "--witness_dir",
                    "--inject"});
  size_t programs = 500;
  uint64_t seed = 1;
  std::string corpus_path;
  std::string witness_dir;
  bool inject = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--programs") == 0) {
      programs = std::strtoul(next("--programs"), nullptr, 10);
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(arg, "--corpus") == 0) {
      corpus_path = next("--corpus");
    } else if (std::strcmp(arg, "--witness_dir") == 0) {
      witness_dir = next("--witness_dir");
    } else if (std::strcmp(arg, "--inject") == 0) {
      inject = std::strtoul(next("--inject"), nullptr, 10) != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 2;
    }
  }

  bench::Report report(
      "Program fuzzer — classified corpus sweep (fragments, ladder, "
      "preservation, async/fault/BSP strategies)");
  if (!flags.json_path.empty()) report.EnableJson(flags.json_path);

  workload::SurveyOptions o;
  o.seed = seed;
  o.programs = programs;
  o.corpus_path = corpus_path;
  o.witness_dir = witness_dir;
  o.inject_misclassification = inject;
  if (flags.threads != 0) o.classify.threads = flags.threads;

  report.Section("survey");
  report.Line("  %zu programs, base seed %llu%s", programs,
              static_cast<unsigned long long>(seed),
              corpus_path.empty()
                  ? " (in-memory corpus)"
                  : (", corpus " + corpus_path).c_str());
  Result<workload::SurveyStats> stats = workload::RunSurvey(o);
  if (!stats.ok()) {
    report.Check("survey runs", false, stats.status().ToString());
    return report.Finish();
  }
  report.Check("survey runs", true);
  report.Metric("programs_classified", static_cast<double>(stats->programs));
  report.Metric("programs_skipped", static_cast<double>(stats->skipped));
  report.Metric("strategy_runs", static_cast<double>(stats->strategy_runs));
  report.Metric("bsp_runs", static_cast<double>(stats->bsp_runs));
  report.Metric("disagreements", static_cast<double>(stats->disagreements));
  if (stats->skipped > 0) {
    report.Line("  resumed: %zu seeds already classified were skipped",
                stats->skipped);
  }

  report.Section("fragment histogram (whole corpus)");
  for (const auto& [fragment, count] : stats->fragment_histogram) {
    report.Line("  %-18s %zu", fragment.c_str(), count);
  }
  report.Section("class histogram (whole corpus)");
  for (const auto& [bucket, count] : stats->class_histogram) {
    report.Line("  %-10s %zu", bucket.c_str(), count);
  }

  report.Section("verdicts");
  // Every fragment the generator can emit must actually appear once the
  // sweep is big enough to cycle the shapes (7 programs).
  const size_t corpus_size = [&] {
    size_t n = 0;
    for (const auto& [fragment, count] : stats->fragment_histogram) n += count;
    return n;
  }();
  if (corpus_size >= workload::kProgramShapeCount) {
    report.Check("all seven fragments represented",
                 stats->fragment_histogram.size() ==
                     workload::kProgramShapeCount);
  }
  report.Check(
      "every guarantee-carrying program ran async, fault, and BSP twins",
      stats->strategy_runs == stats->bsp_runs,
      std::to_string(stats->strategy_runs) + " strategy vs " +
          std::to_string(stats->bsp_runs) + " BSP");
  report.Check("zero classifier/engine disagreements",
               stats->disagreements == 0,
               stats->disagreements == 0
                   ? ""
                   : std::to_string(stats->disagreements) +
                         " divergence records (see witness dir)");
  if (inject) {
    report.Check("negative control: mislabeled program caught",
                 stats->control_caught);
  }

  return report.Finish(bench::WriteObservability(flags));
}
