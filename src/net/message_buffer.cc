#include "net/message_buffer.h"

#include <algorithm>

namespace calm::net {

Instance MessageBuffer::TakeCollapsed(const std::vector<size_t>& indices) {
  Instance delivered;
  if (indices.empty()) return delivered;
  // One compaction pass from the first taken index: taken entries move out,
  // kept ones slide left in order.
  std::vector<Fact> taken;
  taken.reserve(indices.size());
  size_t write = indices.front();
  size_t next = 0;
  for (size_t read = write; read < entries_.size(); ++read) {
    if (next < indices.size() && indices[next] == read) {
      taken.push_back(std::move(entries_[read].fact));
      ++next;
    } else {
      entries_[write++] = std::move(entries_[read]);
    }
  }
  entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(write),
                 entries_.end());
  std::sort(taken.begin(), taken.end());
  delivered.InsertSortedFacts(taken);
  return delivered;
}

std::vector<size_t> MessageBuffer::AllIndices() const {
  std::vector<size_t> out(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) out[i] = i;
  return out;
}

std::vector<size_t> MessageBuffer::IndicesOlderThan(uint64_t tick) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].enqueued_at <= tick) out.push_back(i);
  }
  return out;
}

Json RunStatsToJson(const RunStats& stats) {
  Json out = Json::Object();
  out.Set("transitions", Json::Uint(stats.transitions));
  out.Set("heartbeats", Json::Uint(stats.heartbeats));
  out.Set("sent", Json::Uint(stats.messages_sent));
  out.Set("delivered", Json::Uint(stats.messages_delivered));
  out.Set("output_facts", Json::Uint(stats.output_facts));
  out.Set("output_complete_at", Json::Uint(stats.output_complete_at));
  return out;
}

std::string RunStatsToString(const RunStats& stats) {
  // Rendered from the JSON form so the two reports share one field list.
  std::string out;
  const Json json = RunStatsToJson(stats);
  for (const auto& [key, value] : json.members()) {
    if (!out.empty()) out += ' ';
    out += key + "=" + std::to_string(value.uint_value());
  }
  return out;
}

}  // namespace calm::net
