#ifndef CALM_BASE_FAILPOINT_H_
#define CALM_BASE_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

// ---------------------------------------------------------------------------
// Failpoints (see DESIGN.md, "Durability and crash recovery"): named crash
// sites compiled into the durability layer's write/fsync/rename boundaries.
// A site is one CALM_FAILPOINT("name") statement; executing it while the
// site is armed terminates the process immediately (_exit, no atexit, no
// flushes) — the honest model of a power cut or SIGKILL at that boundary.
//
// The kill-anywhere recovery fuzzer (tests/durability_test.cc) drives them
// in two phases: a counting pass runs the workload crash-free and records
// how often each site executes, then for every (site, k) pair a forked child
// arms the site at its k-th hit, runs the same workload, dies there, and the
// parent recovers and compares against the crash-free oracle.
//
// Arming channels:
//   * programmatic — failpoint::Arm("durable.wal.fsync", 3) (tests, after
//     fork);
//   * environment  — CALM_FAILPOINT=durable.wal.fsync:3 read at process start,
//     so any bench binary can be crashed at a chosen boundary without code
//     changes (the CI kill-and-resume leg uses this).
// Both channels accept only the names in kSites, and every site statement
// static_asserts that its literal is one of them: a mistyped or deleted
// site name fails the build or the arming, never silently runs crash-free.
//
// Cost model: every site costs one relaxed atomic load and a predictable
// branch while nothing is armed or counting.
// ---------------------------------------------------------------------------

namespace calm::failpoint {

// The exit code a fired failpoint terminates with; the fuzzer's parent
// process distinguishes an injected crash from a genuine failure by it.
inline constexpr int kCrashExitCode = 42;

// Every site name a CALM_FAILPOINT statement may use, one per boundary of
// base/durable.cc.
inline constexpr std::string_view kSites[] = {
    "durable.wal.create.write",  "durable.wal.create.fsync",
    "durable.wal.create.rename", "durable.wal.create.dirsync",
    "durable.wal.append",        "durable.wal.fsync",
    "durable.wal.synced",        "durable.wal.truncate",
};

constexpr bool IsKnownSite(std::string_view site) {
  for (std::string_view known : kSites) {
    if (known == site) return true;
  }
  return false;
}

// "site:hit" (hit a positive integer; a bare "site" means hit 1) as
// CALM_FAILPOINT's value gives it. InvalidArgument for a malformed hit
// count or a site not in kSites; the message lists the known sites then.
Result<std::pair<std::string, uint64_t>> ParseSpec(std::string_view spec);

namespace detail {

// True while any site is armed or counting is on; the one relaxed load every
// site pays when the framework is idle.
extern std::atomic<bool> g_active;
inline bool Active() { return g_active.load(std::memory_order_relaxed); }

// The out-of-line slow path: counts the hit and crashes when it is the
// armed site's armed occurrence.
void Hit(const char* site);

}  // namespace detail

// Arms `site`: its `hit`-th execution (1-based) after this call terminates
// the process with kCrashExitCode. At most one site is armed at a time;
// re-arming replaces the previous site. Arming resets the hit counters.
// InvalidArgument, arming nothing, when `site` is not in kSites.
Status Arm(const std::string& site, uint64_t hit);

// Disarms the armed site (counting mode, if on, stays on).
void Disarm();

// Counting mode: sites record how often they execute instead of crashing
// (the fuzzer's oracle pass). Enabling resets the counters.
void SetCounting(bool on);

// The (site, executions) pairs observed since the last Arm/SetCounting
// reset, in site-name order. Only populated while counting or armed.
std::vector<std::pair<std::string, uint64_t>> HitCounts();

// A site statement. `site` must be a string literal listed in kSites (the
// registry stores the pointer until first hit).
#define CALM_FAILPOINT(site)                                        \
  do {                                                              \
    static_assert(::calm::failpoint::IsKnownSite(site),             \
                  "failpoint site not in kSites: " site);           \
    if (::calm::failpoint::detail::Active()) {                      \
      ::calm::failpoint::detail::Hit(site);                         \
    }                                                               \
  } while (false)

}  // namespace calm::failpoint

#endif  // CALM_BASE_FAILPOINT_H_
