// In-memory spans for the traced benchmark run.
//
// A span is one interval at a layer boundary, recorded from the
// benchmark's own code around the calls it makes into the engine: a
// client request (with its wire request id), an in-process Dispatch, a
// crash, a recovery and its RecoveryTracer phases, a reconnect, the
// probe. Spans stay in memory while the run measures and are written
// out when it ends. A span's self time is its duration minus the part
// of its interval its children cover; the self time of a recovery span
// whose children are the tracer's phases is the recovery's
// unattributed remainder.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

struct Span {
  uint32_t id = 0;      ///< 1-based, unique within a log
  uint32_t parent = 0;  ///< 0 = a root span
  std::string name;
  uint64_t request = 0;  ///< wire request id (0 when not a request)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// A thread-safe span collector. Disabled logs record nothing and
/// hand out id 0, so untraced runs pay one branch per boundary.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Reserves an id for a span that will be recorded later (so its
  /// children can name it as parent before it ends). 0 when disabled.
  uint32_t Reserve();

  /// Records a finished span under a reserved id.
  void Record(uint32_t id, uint32_t parent, std::string name,
              int64_t start_ns, int64_t end_ns, uint64_t request = 0);

  /// Reserve + Record in one step; returns the id.
  uint32_t Add(uint32_t parent, std::string name, int64_t start_ns,
               int64_t end_ns, uint64_t request = 0);

  std::vector<Span> spans() const;
  size_t size() const;

  /// Writes one "id,parent,name,request,start_ns,end_ns" line per span.
  /// Returns false if the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Self time of each span (same order as `spans`): its duration minus
/// the union of its children's intervals, clipped to its own.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per span name: the number of spans and the sum of their self times.
struct SelfTimeTotal {
  uint64_t count = 0;
  int64_t self_ns = 0;
  int64_t total_ns = 0;
};
std::map<std::string, SelfTimeTotal> SelfTimesByName(
    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
