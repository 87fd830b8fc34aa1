// The benchmark's own tests: exact percentiles, span self time and the
// unattributed remainder, and the crash-image identity check.
//
// Built with the benchmark; run `.bench_build/perfbench_tests` (or
// `python3 perfbench/run.py --self-test`). Exits non-zero on failure.

#include <cstdio>
#include <string>
#include <vector>

#include "image.h"
#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void TestExactPercentiles() {
  using perfbench::ExactPercentile;
  using perfbench::Median;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT(ExactPercentile(v, 0.50) == 50);
  EXPECT(ExactPercentile(v, 0.99) == 99);
  EXPECT(ExactPercentile(v, 1.0) == 100);
  EXPECT(ExactPercentile(v, 0.001) == 1);
  EXPECT(ExactPercentile({}, 0.5) == 0);
  EXPECT(ExactPercentile({7}, 0.99) == 7);
  // A tail move inside one histogram bucket still shows: 1% of samples
  // going from 460 to 480 us moves p99 by exactly that much.
  std::vector<double> tail(1000, 300);
  for (int i = 0; i < 11; ++i) tail[i] = 460;
  EXPECT(ExactPercentile(tail, 0.99) == 460);
  for (int i = 0; i < 11; ++i) tail[i] = 480;
  EXPECT(ExactPercentile(tail, 0.99) == 480);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  EXPECT(Median({}) == 0);
  EXPECT(perfbench::Mean({1, 2, 6}) == 3);
  EXPECT(perfbench::Mean({}) == 0);
}

void TestSelfTimes() {
  perfbench::SpanLog log(true);
  // A 100 ns recovery with phases [10,30) and [20,50) (overlapping) and
  // [60,70); a grandchild inside the last phase; a child sticking out
  // past the parent's end is clipped.
  const uint32_t root = log.Add(0, "recover", 0, 100);
  log.Add(root, "phase.salvage", 10, 30);
  log.Add(root, "phase.redo", 20, 50);
  const uint32_t undo = log.Add(root, "phase.undo", 60, 70);
  log.Add(undo, "undo.step", 62, 64);
  log.Add(root, "late", 95, 120);
  const std::vector<perfbench::Span> spans = log.spans();
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  // Covered: [10,50) + [60,70) + [95,100) = 55, so 45 unattributed.
  EXPECT(self[0] == 45);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 8);
  EXPECT(self[4] == 2);
  const auto totals = perfbench::SelfTimesByName(spans);
  EXPECT(totals.at("recover").self_ns == 45);
  EXPECT(totals.at("recover").total_ns == 100);
  EXPECT(totals.at("phase.undo").count == 1);

  perfbench::SpanLog off(false);
  EXPECT(off.Add(0, "x", 0, 1) == 0);
  EXPECT(off.size() == 0);
}

void TestImageIdentity() {
  perfbench::ImageSpec spec;
  spec.num_pages = 32;
  spec.actions = 400;
  spec.mix.checkpoint_probability = 0;
  auto built = perfbench::BuildImage(spec, 7);
  EXPECT(built.ok());
  if (!built.ok()) return;
  const perfbench::CrashImage& image = built.value();
  auto again = perfbench::BuildImage(spec, 7);
  EXPECT(again.ok() && again.value().log_hash == image.log_hash &&
         again.value().disk_hash == image.disk_hash);
  auto other = perfbench::BuildImage(spec, 8);
  EXPECT(other.ok() && other.value().log_hash != image.log_hash);

  // A faithful copy restores and recovers to the crash state.
  auto copy = perfbench::RestoreImage(image, 1);
  EXPECT(copy.ok());
  if (copy.ok()) {
    auto& db = *copy.value();
    db.Crash();
    EXPECT(db.Recover().ok());
    auto pages = perfbench::CachedPages(db);
    EXPECT(pages.ok() &&
           perfbench::HashPages(pages.value()) == image.expected_hash);
  }

  // One flipped byte in a disk page or a log payload is caught before
  // any recovery runs.
  perfbench::CrashImage bad_disk = image;
  bad_disk.disk[5].WriteSlot(9, bad_disk.disk[5].ReadSlot(9) ^ 1);
  EXPECT(!perfbench::RestoreImage(bad_disk, 1).ok());
  perfbench::CrashImage bad_log = image;
  for (auto& record : bad_log.log) {
    if (!record.payload.empty()) {
      record.payload.back() ^= 0x40;
      break;
    }
  }
  EXPECT(!perfbench::RestoreImage(bad_log, 1).ok());

  // Checkpoints would move the scan start between builds: refused.
  perfbench::ImageSpec checkpointing = spec;
  checkpointing.mix.checkpoint_probability = 0.1;
  EXPECT(!perfbench::BuildImage(checkpointing, 7).ok());
}

}  // namespace

int main() {
  TestExactPercentiles();
  TestSelfTimes();
  TestImageIdentity();
  if (g_failures == 0) std::printf("perfbench_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
