#include "base/failpoint.h"

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

namespace calm::failpoint {

namespace {

Status UnknownSite(std::string_view site) {
  std::string known;
  for (std::string_view k : kSites) {
    if (!known.empty()) known += ", ";
    known += k;
  }
  return InvalidArgumentError("unknown failpoint site '" + std::string(site) +
                              "' (known sites: " + known + ")");
}

}  // namespace

Result<std::pair<std::string, uint64_t>> ParseSpec(std::string_view spec) {
  std::string_view site = spec;
  uint64_t hit = 1;
  const size_t colon = spec.rfind(':');
  if (colon != std::string_view::npos) {
    site = spec.substr(0, colon);
    const std::string_view count = spec.substr(colon + 1);
    const auto [end, ec] =
        std::from_chars(count.data(), count.data() + count.size(), hit);
    if (count.empty() || ec != std::errc() ||
        end != count.data() + count.size() || hit == 0) {
      return InvalidArgumentError("malformed hit count in " +
                                  std::string(spec) +
                                  " (want site:positive-integer)");
    }
  }
  if (!IsKnownSite(site)) return UnknownSite(site);
  return std::make_pair(std::string(site), hit);
}

namespace detail {

std::atomic<bool> g_active{false};

namespace {

// All slow-path state behind one mutex: arming and counting are test/fuzzer
// operations, and a hit only reaches the mutex while the framework is active.
struct State {
  std::mutex mu;
  bool counting = false;
  std::string armed_site;   // empty = nothing armed
  uint64_t armed_hit = 0;   // 1-based occurrence that crashes
  std::map<std::string, uint64_t> counts;
};

State& GetState() {
  static State* state = new State();
  return *state;
}

// CALM_FAILPOINT=site:hit — one env read at process start, so any binary can
// be crashed at a chosen boundary without code changes. A spec ParseSpec
// rejects exits 2 before anything runs.
struct EnvArm {
  EnvArm() {
    const char* spec = std::getenv("CALM_FAILPOINT");
    if (spec == nullptr || *spec == '\0') return;
    Result<std::pair<std::string, uint64_t>> parsed = ParseSpec(spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "CALM_FAILPOINT: %s\n",
                   parsed.status().message().c_str());
      std::exit(2);
    }
    (void)Arm(parsed->first, parsed->second);
  }
};
EnvArm g_env_arm;

}  // namespace

void Hit(const char* site) {
  State& state = GetState();
  std::unique_lock<std::mutex> lock(state.mu);
  if (!state.counting && state.armed_site.empty()) return;  // raced a Disarm
  uint64_t count = ++state.counts[site];
  if (!state.armed_site.empty() && state.armed_site == site &&
      count == state.armed_hit) {
    // The crash model is a power cut: no atexit handlers, no stream flushes,
    // no destructors — anything not yet durable is lost. The one fprintf is
    // unbuffered (stderr) and purely diagnostic.
    std::fprintf(stderr, "failpoint fired: %s (hit %llu)\n", site,
                 static_cast<unsigned long long>(count));
    _exit(kCrashExitCode);
  }
}

}  // namespace detail

Status Arm(const std::string& site, uint64_t hit) {
  if (!IsKnownSite(site)) return UnknownSite(site);
  detail::State& state = detail::GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.armed_site = site;
  state.armed_hit = hit == 0 ? 1 : hit;
  state.counts.clear();
  detail::g_active.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

void Disarm() {
  detail::State& state = detail::GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.armed_site.clear();
  state.armed_hit = 0;
  detail::g_active.store(state.counting, std::memory_order_relaxed);
}

void SetCounting(bool on) {
  detail::State& state = detail::GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.counting = on;
  state.counts.clear();
  detail::g_active.store(on || !state.armed_site.empty(),
                         std::memory_order_relaxed);
}

std::vector<std::pair<std::string, uint64_t>> HitCounts() {
  detail::State& state = detail::GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<std::pair<std::string, uint64_t>> out(state.counts.begin(),
                                                    state.counts.end());
  return out;
}

}  // namespace calm::failpoint
