// Crash images: a database crashed at a point fixed by seed and size.
//
// An image is built once per set-up by a seeded serial action stream
// (engine::Workload) with no checkpoints, so recovery replays the whole
// log. The stream ends with a full log force before the crash: the
// image holds no losers (undo would append CLRs and change the next
// repetition's input) and no torn tail, so the state every recovery
// must rebuild is exactly the engine's cached state just before the
// crash. Each timed recovery runs on a fresh engine restored from the
// image, and the restored disk pages and stable log are hashed and
// compared with the image first.

#ifndef PERFBENCH_IMAGE_H_
#define PERFBENCH_IMAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/minidb.h"
#include "engine/workload.h"
#include "methods/method.h"
#include "storage/page.h"
#include "util/status.h"
#include "wal/log_record.h"

namespace perfbench {

struct ImageSpec {
  redo::methods::MethodKind method = redo::methods::MethodKind::kPhysiological;
  size_t num_pages = 1024;
  /// Serial actions after the preload (one blind format per page).
  size_t actions = 0;
  /// The stream's mix; its checkpoint probability must be 0.
  redo::engine::WorkloadOptions mix;
};

struct CrashImage {
  ImageSpec spec;
  std::vector<redo::storage::Page> disk;  ///< stable pages at the crash
  std::vector<redo::wal::LogRecord> log;  ///< stable log records
  uint64_t disk_hash = 0;
  uint64_t log_hash = 0;
  uint64_t log_bytes = 0;
  /// The state every recovery must rebuild (cached pages at the crash).
  std::vector<redo::storage::Page> expected;
  uint64_t expected_hash = 0;
};

/// A fast 64-bit hash of a byte range (word-at-a-time multiply-xor).
/// For identity checks of benchmark inputs, not for adversarial data.
uint64_t HashBytes64(const uint8_t* data, size_t size, uint64_t seed = 0);

/// The MiniDb configuration `net_server` runs with: the given page
/// count, unbounded pool, instant restart with 2 drain workers, 2 net
/// workers, a 100 us group-commit window, no async I/O and no
/// simulated device latency.
redo::engine::MiniDbOptions ServerOptions(size_t num_pages);

/// The blind-format fill of page `page` in every image's preload.
int64_t PreloadFill(redo::storage::PageId page);

/// Builds the image for `spec` from `seed`.
redo::Result<CrashImage> BuildImage(const ImageSpec& spec, uint64_t seed);

/// A fresh engine (net_server's options, `parallel_workers` redo
/// workers) holding a byte-identical copy of the image's disk pages and
/// stable log, with an empty cache; callers Crash() it and recover.
/// Fails with kCorruption if the copy's disk or stable log hash differs
/// from the image's.
redo::Result<std::unique_ptr<redo::engine::MiniDb>> RestoreImage(
    const CrashImage& image, size_t parallel_workers);

uint64_t HashDisk(const redo::storage::Disk& disk);
uint64_t HashStableLog(const redo::wal::LogManager& log);
uint64_t HashPages(const std::vector<redo::storage::Page>& pages);

/// Every page as the engine's cache holds it, through the serial API
/// (engine quiesced and not in concurrent mode).
redo::Result<std::vector<redo::storage::Page>> CachedPages(
    redo::engine::MiniDb& db);

}  // namespace perfbench

#endif  // PERFBENCH_IMAGE_H_
