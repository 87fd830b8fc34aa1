// The benchmark's workloads and the driver that runs one of them.
//
// Every workload drives the engine as `net_server` ships it, from the
// outside: a crash image is restored into a fresh engine and recovered
// three ways (Recover at 1 worker, Recover at 4 workers, RecoverInstant
// behind a NetServer with a fresh client's write+commit as the probe),
// and after the last instant restart of a round three closed-loop TCP
// clients drive the workload's command mix. The workloads differ in
// the image (method, size) and the mix, and so in which layers they
// load: the two serving workloads spend most of a round serving, the
// restart workload most of it recovering.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "image.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  ImageSpec image;
  /// Share of the clients' data commands that are ReadSlot.
  double read_fraction = 0;
  /// Zipf skew of the clients' page choice (0 = uniform).
  double zipf_skew = 0;
  /// A client commits after this many batches that held a write.
  size_t commit_every = 4;
  /// Serving workloads report trace overhead on ops_s, restart
  /// workloads on recover_ms.
  bool serving = true;
  /// Per round: quiescing restarts (each at 1 and at 4 workers) and
  /// instant restarts, each instant restart on a fresh copy.
  size_t quiescing_restarts = 1;
  size_t instant_restarts = 1;
  /// Serve slices after a round's last instant restart, back to back on
  /// the same server, each a separate sample of the serving metrics.
  size_t serve_slices = 1;
  /// Image builds in set-up (setup_s is their median).
  size_t setup_reps = 5;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(const std::string& name);

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string span_path;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for diagnosis
  std::map<std::string, Metric> metrics;
  /// Facts about the run's inputs (image size, rounds, ...).
  std::map<std::string, double> facts;
  /// Per-repetition values behind the medians (one per serve slice or
  /// per restart), so the spread within a run is visible.
  std::map<std::string, std::vector<double>> series;
  bool correct() const { return failed == 0 && attempted > 0; }
};

RunResult RunWorkload(const WorkloadConfig& config, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
