#include "image.h"

#include <cstring>

#include "util/rng.h"

namespace perfbench {

using redo::Result;
using redo::Status;
using redo::engine::MiniDb;
using redo::storage::Page;
using redo::storage::PageId;

uint64_t HashBytes64(const uint8_t* data, size_t size, uint64_t seed) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = seed ^ (size * kMul);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, sizeof(w));
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  }
  uint64_t tail = 0;
  if (size > i) std::memcpy(&tail, data + i, size - i);
  h = (h ^ tail) * kMul;
  return h ^ (h >> 32);
}

redo::engine::MiniDbOptions ServerOptions(size_t num_pages) {
  redo::engine::MiniDbOptions options;
  options.num_pages = num_pages;
  options.cache_capacity = 0;
  options.engine.instant_restart = true;
  options.engine.instant_drain_workers = 2;
  options.engine.group_commit_window_us = 100;
  options.engine.async_io_workers = 0;
  options.engine.simulated_force_latency_us = 0;
  options.engine.simulated_read_latency_us = 0;
  options.engine.async_read_latency_us = 0;
  options.engine.async_write_latency_us = 0;
  options.net.port = 0;
  options.net.worker_threads = 2;
  return options;
}

int64_t PreloadFill(PageId page) {
  return 1000003LL * (static_cast<int64_t>(page) + 1);
}

uint64_t HashPages(const std::vector<Page>& pages) {
  uint64_t h = pages.size();
  for (const Page& page : pages) {
    h = HashBytes64(page.bytes().data(), Page::kSize, h);
  }
  return h;
}

uint64_t HashDisk(const redo::storage::Disk& disk) {
  uint64_t h = disk.num_pages();
  for (PageId id = 0; id < disk.num_pages(); ++id) {
    h = HashBytes64(disk.PeekPage(id).bytes().data(), Page::kSize, h);
  }
  return h;
}

uint64_t HashStableLog(const redo::wal::LogManager& log) {
  // The active segment's raw bytes are not readable through the public
  // API, so the hash covers the segment layout plus every stable record
  // (LSN, type, payload) as recovery will read it.
  uint64_t h = log.stable_lsn();
  for (const redo::wal::SegmentInfo& s : log.LiveSegments()) {
    const uint64_t layout[] = {s.id,          s.first_lsn,     s.last_lsn,
                               s.bytes,       s.sealed,        s.primary_seal,
                               s.mirror_seal, s.archived};
    h = HashBytes64(reinterpret_cast<const uint8_t*>(layout), sizeof(layout), h);
  }
  auto records = log.StableRecords(1);
  if (!records.ok()) return ~h;
  for (const redo::wal::LogRecord& record : records.value()) {
    const uint64_t header[] = {record.lsn, static_cast<uint64_t>(record.type)};
    h = HashBytes64(reinterpret_cast<const uint8_t*>(header), sizeof(header), h);
    h = HashBytes64(record.payload.data(), record.payload.size(), h);
  }
  return h;
}

Result<std::vector<Page>> CachedPages(MiniDb& db) {
  std::vector<Page> pages;
  pages.reserve(db.num_pages());
  for (PageId id = 0; id < db.num_pages(); ++id) {
    auto page = db.FetchPage(id);
    if (!page.ok()) return page.status();
    pages.push_back(*page.value());
  }
  return pages;
}

Result<CrashImage> BuildImage(const ImageSpec& spec, uint64_t seed) {
  if (spec.mix.checkpoint_probability != 0) {
    return Status::InvalidArgument("crash images take no checkpoints");
  }
  MiniDb db(ServerOptions(spec.num_pages),
            redo::methods::MakeMethod(spec.method, {spec.num_pages}));
  for (PageId page = 0; page < spec.num_pages; ++page) {
    REDO_RETURN_IF_ERROR(db.BlindFormat(page, PreloadFill(page)).status());
  }
  redo::engine::WorkloadOptions mix = spec.mix;
  mix.num_pages = spec.num_pages;
  redo::engine::Workload workload(mix, seed);
  redo::Rng rng(seed ^ 0x5eedf00dULL);
  for (size_t i = 0; i < spec.actions; ++i) {
    REDO_RETURN_IF_ERROR(
        redo::engine::ExecuteAction(db, workload.Next(), rng));
  }
  REDO_RETURN_IF_ERROR(db.log().ForceAll());

  CrashImage image;
  image.spec = spec;
  auto expected = CachedPages(db);
  if (!expected.ok()) return expected.status();
  image.expected = std::move(expected).value();
  image.expected_hash = HashPages(image.expected);

  db.Crash();
  image.disk.reserve(spec.num_pages);
  for (PageId id = 0; id < spec.num_pages; ++id) {
    image.disk.push_back(db.disk().PeekPage(id));
  }
  auto records = db.log().StableRecords(1);
  if (!records.ok()) return records.status();
  image.log = std::move(records).value();
  image.disk_hash = HashDisk(db.disk());
  image.log_hash = HashStableLog(db.log());
  image.log_bytes = db.log().stats().stable_bytes;
  return image;
}

Result<std::unique_ptr<MiniDb>> RestoreImage(const CrashImage& image,
                                             size_t parallel_workers) {
  redo::engine::MiniDbOptions options = ServerOptions(image.spec.num_pages);
  options.engine.parallel_workers = parallel_workers;
  auto db = std::make_unique<MiniDb>(
      options,
      redo::methods::MakeMethod(image.spec.method, {image.spec.num_pages}));
  for (PageId id = 0; id < image.disk.size(); ++id) {
    db->disk().RepairPage(id, image.disk[id]);
  }
  for (const redo::wal::LogRecord& record : image.log) {
    if (db->log().Append(record.type, record.payload) != record.lsn) {
      return Status::Corruption("restored log assigned a different LSN");
    }
  }
  REDO_RETURN_IF_ERROR(db->log().ForceAll());
  if (HashDisk(db->disk()) != image.disk_hash ||
      HashStableLog(db->log()) != image.log_hash) {
    return Status::Corruption("restored image is not byte-identical");
  }
  return db;
}

}  // namespace perfbench
