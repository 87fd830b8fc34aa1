#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t SpanLog::Reserve() {
  if (!enabled_) return 0;
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void SpanLog::Record(uint32_t id, uint32_t parent, std::string name,
                     int64_t start_ns, int64_t end_ns, uint64_t request) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{id, parent, std::move(name), request, start_ns, end_ns});
}

uint32_t SpanLog::Add(uint32_t parent, std::string name, int64_t start_ns,
                      int64_t end_ns, uint64_t request) {
  const uint32_t id = Reserve();
  Record(id, parent, std::move(name), start_ns, end_ns, request);
  return id;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("id,parent,name,request,start_ns,end_ns\n", f);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%u,%s,%llu,%lld,%lld\n", s.id, s.parent,
                 s.name.c_str(), static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // everything before cursor is already counted
    for (const auto& [start, end] : kids) {
      const int64_t a = std::max(start, cursor);
      const int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max<int64_t>(0, hi - lo - covered);
  }
  return self;
}

std::map<std::string, SelfTimeTotal> SelfTimesByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SelfTimeTotal> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SelfTimeTotal& t = totals[spans[i].name];
    ++t.count;
    t.self_ns += self[i];
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
  }
  return totals;
}

}  // namespace perfbench
