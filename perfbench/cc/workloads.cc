#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>

#include "engine/command.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/recovery_trace.h"
#include "spans.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using redo::Status;
using redo::core::Lsn;
using redo::engine::Command;
using redo::engine::MiniDb;
using redo::engine::Reply;
using redo::obs::Snapshot;
using redo::storage::Page;
using redo::storage::PageId;

// The generator stays within the host's 4 cores: 3 client connections
// (one thread each) beside the server's event loop and 2 net workers.
constexpr size_t kClients = 3;
constexpr size_t kPipeline = 4;
// Client c owns slot c of every page: it is the only writer there, so
// its last acked value is the one a read-back must see. Reads of the
// mix go to the slots no client writes, whose value the image fixes.
// The probe writes kProbeSlot, which nothing else reads or writes.
constexpr uint32_t kProbeSlot = 510;
constexpr uint32_t kFirstReadSlot = kClients;
constexpr const char* kHost = "127.0.0.1";
constexpr int kConnectDeadlineMs = 10000;
constexpr size_t kMaxFailureMessages = 8;
// The most hypervisor steal (share of host CPU) a serve slice may see
// and still count; calm slices on the reference host see under 1 %, and
// slices stolen from at 3-25 % show closed-loop tails 1.5-25x the calm
// ones. When none is that calm, the least-stolen slice counts.
constexpr double kMaxSteal = 0.02;
// Read-back passes per client after each slice on workloads whose mix
// has no reads, where the read-backs give the read figures.
constexpr size_t kReadBackPasses = 4;
// How often a traced slice drains the flight recorder: far below the
// time a worker takes to fill its 8192-event ring.
constexpr auto kDrainInterval = std::chrono::milliseconds(5);

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Attempts and failures of every command, recovery and check; shared
/// by the client threads.
class Ledger {
 public:
  /// Counts one attempt and, if it failed, the failure. `what` is the
  /// failure message or a callable building it (only called on failure,
  /// so the per-request checks build no strings).
  template <typename Message>
  bool Check(bool ok, Message&& what) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      if constexpr (std::is_invocable_v<Message>) {
        Fail(what());
      } else {
        Fail(what);
      }
    }
    return ok;
  }
  void Fail(const std::string& what) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < kMaxFailureMessages) messages_.push_back(what);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

/// Latencies of the mix, plus the end-of-slice read-backs kept apart:
/// they run after the mix with no writers, so they stand in for the
/// mix's reads only on workloads whose mix has none.
struct OpSamples {
  std::vector<double> write_us, read_us, commit_us;
  std::vector<double> readback_us;
  uint64_t acked = 0;   ///< mix data commands acked ok
  uint64_t issued = 0;  ///< mix ops drawn from the stream
  void Append(const OpSamples& other) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(write_us, other.write_us);
    append(read_us, other.read_us);
    append(commit_us, other.commit_us);
    append(readback_us, other.readback_us);
    acked += other.acked;
    issued += other.issued;
  }
  const std::vector<double>& reads(bool mix_reads) const {
    return mix_reads ? read_us : readback_us;
  }
};

/// Runs once, when the last client's mix has ended and before any
/// client commits its tail or reads back: the slice's figures stop here.
struct MixEnd {
  std::function<void()> on_end;
  void operator()() noexcept { on_end(); }
};
using MixBarrier = std::barrier<MixEnd>;

/// A client's single arrival at the mix barrier; a client that gives up
/// early leaves the barrier so the others are not held.
class MixArrival {
 public:
  explicit MixArrival(MixBarrier& barrier) : barrier_(barrier) {}
  ~MixArrival() {
    if (!arrived_) barrier_.arrive_and_drop();
  }
  void Wait() {
    arrived_ = true;
    barrier_.arrive_and_wait();
  }

 private:
  MixBarrier& barrier_;
  bool arrived_ = false;
};

/// Drains the flight recorder every kDrainInterval while a traced
/// slice's mix runs, so no per-thread ring wraps, and sums the latch
/// waits and session ops of the mix.
class LatchWaitDrain {
 public:
  void Start() {
    redo::obs::FlightRecorder& recorder = redo::obs::FlightRecorder::Global();
    recorder.Drain();
    dropped_before_ = recorder.events_dropped();
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        Take();
        std::this_thread::sleep_for(kDrainInterval);
      }
    });
  }
  /// Stops at the end of the mix; returns the events the rings
  /// overwrote before a drain saw them (0 on a sound measurement).
  uint64_t Stop() {
    if (!thread_.joinable()) return 0;
    stop_ = true;
    thread_.join();
    Take();
    return redo::obs::FlightRecorder::Global().events_dropped() - dropped_before_;
  }
  ~LatchWaitDrain() { Stop(); }
  double latch_wait_us = 0;
  double session_ops = 0;

 private:
  void Take() {
    for (const redo::obs::FlightEvent& e : redo::obs::FlightRecorder::Global().Drain()) {
      if (e.type == redo::obs::FlightEventType::kLatchWait) {
        latch_wait_us += static_cast<double>(e.dur);
      } else if (e.type == redo::obs::FlightEventType::kSessionOp) {
        ++session_ops;
      }
    }
  }
  std::atomic<bool> stop_{false};
  std::thread thread_;
  uint64_t dropped_before_ = 0;
};

struct Op {
  bool read = false;
  PageId page = 0;
  uint32_t slot = 0;  ///< reads only; a write goes to the client's slot
  int64_t value = 0;  ///< writes only
};

/// One client's seeded command stream.
class OpStream {
 public:
  OpStream(const WorkloadConfig& config, size_t client, uint64_t seed,
           const redo::ZipfSampler& zipf)
      : read_fraction_(config.read_fraction),
        rng_(seed * 0x9e3779b97f4a7c15ULL + client + 1),
        zipf_(zipf),
        next_value_((static_cast<int64_t>(client) + 1) << 48) {}

  Op Next() {
    Op op;
    op.read = rng_.NextDouble() < read_fraction_;
    op.page = static_cast<PageId>(zipf_.Sample(rng_));
    if (op.read) {
      op.slot = kFirstReadSlot +
                static_cast<uint32_t>(rng_.Below(kProbeSlot - kFirstReadSlot));
    } else {
      op.value = ++next_value_;
    }
    return op;
  }

 private:
  double read_fraction_;
  redo::Rng rng_;
  const redo::ZipfSampler& zipf_;
  int64_t next_value_;
};

/// What a client has written to its slot on each page.
struct OwnedSlots {
  std::vector<int64_t> last;  ///< last acked value, per page
  std::vector<char> written;  ///< the page was written by this client
};

/// The host's CPU counters from /proc/stat (zero where unavailable).
/// The share the hypervisor stole is recorded per run and per serve
/// slice, so figures measured on a contended host can be told apart.
struct HostCpu {
  uint64_t steal = 0, total = 0;
  static HostCpu Now() {
    HostCpu cpu;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return cpu;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (unsigned long long x : v) cpu.total += x;
      cpu.steal = v[7];
    }
    std::fclose(f);
    return cpu;
  }
  double StealShareSince(const HostCpu& since) const {
    return Ratio(static_cast<double>(steal - since.steal),
                 static_cast<double>(total - since.total));
  }
};

struct ProcessUsage {
  int64_t user_us = 0, sys_us = 0, ctx_switches = 0;
  static ProcessUsage Now() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    ProcessUsage p;
    p.user_us = u.ru_utime.tv_sec * 1000000LL + u.ru_utime.tv_usec;
    p.sys_us = u.ru_stime.tv_sec * 1000000LL + u.ru_stime.tv_usec;
    p.ctx_switches = u.ru_nvcsw + u.ru_nivcsw;
    return p;
  }
};

double HistogramMeanUs(const Snapshot& delta, const std::string& name) {
  const redo::obs::SnapshotEntry* entry = delta.Find(name);
  if (entry == nullptr || entry->count == 0) return 0;
  return static_cast<double>(entry->sum) / static_cast<double>(entry->count);
}

/// Everything one run accumulates across rounds.
struct Accumulator {
  std::vector<double> recover_ms, recover_par_ms, ttfc_ms, instant_done_ms;
  OpSamples wire;
  /// Per serve slice: exact percentiles and throughput of that slice's
  /// mix, and the host CPU share the hypervisor stole while it ran. The
  /// reported figure is the median over the run's slices.
  struct Slice {
    double steal = 0;
    std::map<std::string, double> values;
  };
  std::vector<Slice> slices;
  double log_bytes = 0;
  uint64_t writes_acked = 0;
  // Traced rounds only.
  OpSamples dispatch;
  std::map<std::string, std::vector<double>> layer;
  std::vector<double> headline_traced, headline_untraced;
  void Layer(const std::string& name, double value) {
    layer[name].push_back(value);
  }
};

/// Shared state of one run.
struct Context {
  const WorkloadConfig& config;
  const CrashImage& image;
  Ledger& ledger;
  SpanLog& spans;
  redo::ZipfSampler zipf;
  redo::Rng rng;
  Accumulator acc;
};

/// The recovery tracer's phases as child spans of the recovery span
/// `parent` (named `parent_name`), each named "<parent_name>.<phase>".
/// The tracer records each phase's duration, not its start, so the
/// children are laid end to end from the parent's start; durations, and
/// so the parent's self time (the unattributed remainder), are exact.
void PhaseSpans(SpanLog& spans, uint32_t parent, const std::string& parent_name,
                int64_t start_ns, const redo::obs::RecoveryTracer& tracer) {
  struct Open {
    uint32_t id;
    int64_t start;
    int64_t cursor;  ///< where the next child begins
  };
  std::vector<Open> stack{{parent, start_ns, start_ns}};
  for (const redo::obs::TraceEvent& event : tracer.events()) {
    if (event.event == "phase-begin") {
      const int64_t at = stack.back().cursor;
      stack.push_back({spans.Reserve(), at, at});
    } else if (event.event == "phase-end" && stack.size() > 1) {
      std::string name;
      for (const auto& [key, value] : event.strings) {
        if (key == "phase") name = value;
      }
      const Open open = stack.back();
      stack.pop_back();
      const int64_t end = open.start + static_cast<int64_t>(event.wall_us) * 1000;
      spans.Record(open.id, stack.back().id, parent_name + "." + name,
                   open.start, end);
      stack.back().cursor = end;
    }
  }
}

void CheckCachedPages(Context& ctx, MiniDb& db, const std::string& mode) {
  auto pages = CachedPages(db);
  ctx.ledger.Check(pages.ok() && HashPages(pages.value()) ==
                                     ctx.image.expected_hash,
                   mode + ": recovered pages differ from the crash state");
}

/// Crashes `db` and checks that its disk pages and stable log are
/// byte-identical to the image before a timed recovery runs on it.
/// Returns the crash call's duration in ns, or -1 on a mismatch.
int64_t CrashToImage(Context& ctx, MiniDb& db, const std::string& mode) {
  const int64_t t0 = NowNs();
  db.Crash();
  const int64_t crash_ns = NowNs() - t0;
  const bool same = HashDisk(db.disk()) == ctx.image.disk_hash &&
                    HashStableLog(db.log()) == ctx.image.log_hash;
  return ctx.ledger.Check(same, mode + ": crashed copy differs from the image")
             ? crash_ns
             : -1;
}

/// One quiescing restart of `db`: crash, check, Recover() at `workers`.
/// Recover() writes neither the disk nor the log of a loser-free image,
/// so one restored copy serves every quiescing repetition of a round.
void QuiescingRestart(Context& ctx, MiniDb& db, size_t workers,
                      uint32_t round_span, bool traced) {
  Ledger& ledger = ctx.ledger;
  const std::string mode = workers == 1 ? "recover.serial" : "recover.parallel";
  redo::engine::EngineOptions engine = db.engine_options();
  engine.parallel_workers = workers;
  db.set_engine_options(engine);
  const int64_t crash_ns = CrashToImage(ctx, db, mode);
  if (crash_ns < 0) return;
  std::unique_ptr<redo::obs::RecoveryTracer> tracer;
  if (traced) {
    tracer = std::make_unique<redo::obs::RecoveryTracer>(&db.metrics());
    db.Attach({nullptr, tracer.get()});
  }
  const Snapshot before = db.metrics().TakeSnapshot();
  const int64_t t1 = NowNs();
  const Status recovered = db.Recover();
  const int64_t t2 = NowNs();
  if (traced) db.Attach({});
  if (!ledger.Check(recovered.ok(), mode + ": " + recovered.ToString())) {
    return;
  }
  (workers == 1 ? ctx.acc.recover_ms : ctx.acc.recover_par_ms)
      .push_back(Ms(t2 - t1));
  const Snapshot delta = db.metrics().TakeSnapshot().Delta(before);
  CheckCachedPages(ctx, db, mode);
  if (!traced) return;

  ctx.spans.Add(round_span, "crash", t1 - crash_ns, t1);
  const uint32_t span = ctx.spans.Reserve();
  PhaseSpans(ctx.spans, span, mode, t1, *tracer);
  ctx.spans.Record(span, round_span, mode, t1, t2);
  Accumulator& acc = ctx.acc;
  acc.Layer("round.pool.hits", static_cast<double>(delta.Value("pool.hits")));
  acc.Layer("round.pool.fetches", static_cast<double>(delta.Value("pool.fetches")));
  acc.Layer("round.disk.reads", static_cast<double>(delta.Value("disk.reads")));
  acc.Layer("round.disk.writes", static_cast<double>(delta.Value("disk.writes")));
  if (workers == 1) {
    const redo::obs::VerdictCounts& verdicts = tracer->run_verdicts();
    acc.Layer("redo.useful_ratio",
              Ratio(static_cast<double>(verdicts.applied),
                    static_cast<double>(verdicts.total())));
    acc.Layer("wal.scan_decodes", static_cast<double>(delta.Value("wal.scan_decodes")));
    acc.Layer("wal.scan_cache_hits",
              static_cast<double>(delta.Value("wal.scan_cache_hits")));
  } else {
    const double wall = Ms(t2 - t1);
    const double critical =
        static_cast<double>(delta.Value("redo.parallel.apply_critical_path_us")) / 1e3;
    acc.Layer("redo.tasks", static_cast<double>(delta.Value("redo.parallel.tasks")));
    acc.Layer("redo.handoffs", static_cast<double>(delta.Value("redo.parallel.handoffs")));
    acc.Layer("redo.cross_edges",
              static_cast<double>(delta.Value("redo.parallel.cross_edges")));
    acc.Layer("redo.blind_installs",
              static_cast<double>(delta.Value("redo.parallel.blind_installs")));
    acc.Layer("redo.apply_busy_ms",
              static_cast<double>(delta.Value("redo.parallel.apply_busy_us")) / 1e3);
    acc.Layer("redo.critical_path_ms", critical);
    acc.Layer("redo.serial_share", Ratio(wall - critical, wall));
  }
}

/// Sends `ops` as one pipelined batch and checks every reply. Returns
/// false once the connection is unusable.
bool RunBatch(Context& ctx, redo::net::NetClient& client, size_t c,
              const std::vector<Op>& ops, const std::vector<Page>& expected,
              OwnedSlots& owned, OpSamples& out, Lsn* last_write_lsn,
              uint32_t parent_span) {
  Ledger& ledger = ctx.ledger;
  int64_t sent_ns[kPipeline];
  uint64_t ids[kPipeline];
  for (size_t k = 0; k < ops.size(); ++k) {
    const Op& op = ops[k];
    const Command command =
        op.read ? redo::engine::MakeReadSlotCommand(op.page, op.slot)
                : redo::engine::MakeWriteSlotCommand(
                      op.page, static_cast<uint32_t>(c), op.value);
    sent_ns[k] = NowNs();
    auto id = client.SendCommand(command);
    if (!ledger.Check(id.ok(), [&] { return "send: " + id.status().ToString(); })) {
      return false;
    }
    ids[k] = id.value();
  }
  for (size_t k = 0; k < ops.size(); ++k) {
    const Op& op = ops[k];
    uint64_t id = 0;
    auto reply = client.ReceiveReply(&id);
    const int64_t now = NowNs();
    if (!reply.ok() || id != ids[k]) {
      ledger.Fail("receive: " + reply.status().ToString());
      return false;
    }
    const Reply& r = reply.value();
    ctx.spans.Add(parent_span, op.read ? "net.read" : "net.write", sent_ns[k],
                  now, id);
    if (op.read) {
      const int64_t want = op.slot < kClients
                               ? owned.last[op.page]
                               : expected[op.page].ReadSlot(op.slot);
      if (ledger.Check(r.ok() && r.value == want, [&] {
            return "read p" + std::to_string(op.page) + "[" +
                   std::to_string(op.slot) + "] = " + std::to_string(r.value) +
                   ", want " + std::to_string(want) + " " + r.message;
          })) {
        out.read_us.push_back(Us(now - sent_ns[k]));
        ++out.acked;
      }
    } else if (ledger.Check(r.ok() && r.lsn > 0,
                            [&] { return "write: " + r.message; })) {
      owned.last[op.page] = op.value;
      owned.written[op.page] = 1;
      *last_write_lsn = std::max(*last_write_lsn, r.lsn);
      out.write_us.push_back(Us(now - sent_ns[k]));
      ++out.acked;
    }
  }
  return true;
}

/// Commits over the wire and checks the reply's stable LSN covers the
/// commit and every write acked before it.
bool WireCommit(Context& ctx, redo::net::NetClient& client, Lsn last_write_lsn,
                OpSamples& out, uint32_t parent_span) {
  const int64_t t0 = NowNs();
  auto reply = client.Call(redo::engine::MakeCommitCommand());
  const int64_t t1 = NowNs();
  if (!reply.ok()) {
    ctx.ledger.Fail("commit: " + reply.status().ToString());
    return false;
  }
  const Reply& r = reply.value();
  ctx.spans.Add(parent_span, "net.commit", t0, t1);
  if (ctx.ledger.Check(
          r.ok() && r.lsn >= last_write_lsn && r.stable_lsn >= r.lsn, [&] {
            return "commit not covered: lsn " + std::to_string(r.lsn) +
                   " stable " + std::to_string(r.stable_lsn) + " " + r.message;
          })) {
    out.commit_us.push_back(Us(t1 - t0));
    ++out.acked;
  }
  return true;
}

/// Reads back the client's slot on every page, `passes` times; each
/// read must return the last value the client had acked there.
void ReadBack(Context& ctx, redo::net::NetClient& client, size_t c,
              const std::vector<Page>& expected, OwnedSlots& owned,
              size_t passes, OpSamples& out, uint32_t parent_span) {
  const PageId pages = static_cast<PageId>(expected.size());
  Lsn unused = 0;
  std::vector<Op> batch;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (PageId page = 0; page < pages; ++page) {
      batch.push_back(Op{true, page, static_cast<uint32_t>(c), 0});
      if (batch.size() == kPipeline || page + 1 == pages) {
        if (!RunBatch(ctx, client, c, batch, expected, owned, out, &unused,
                      parent_span)) {
          return;
        }
        batch.clear();
      }
    }
  }
}

/// One closed-loop TCP client: pipelined batches of the mix until the
/// deadline, a commit every `commit_every` batches that wrote; then, once
/// every client's mix has ended, a final commit and the read-back, whose
/// read latencies go to `out.readback_us` and whose commit counts in no
/// figure.
void WireClient(Context& ctx, uint16_t port, size_t c, int64_t deadline_ns,
                OpStream stream, const std::vector<Page>& expected,
                OwnedSlots& owned, OpSamples& out, MixBarrier& mix_end,
                uint32_t parent_span) {
  MixArrival arrival(mix_end);
  redo::net::NetClient client;
  const Status connected =
      client.ConnectWithRetry(kHost, port, kConnectDeadlineMs);
  if (!ctx.ledger.Check(connected.ok(), "connect: " + connected.ToString())) {
    return;
  }
  Lsn last_write_lsn = 0;
  size_t write_batches = 0;
  bool uncommitted = false;
  std::vector<Op> batch;
  while (NowNs() < deadline_ns) {
    batch.clear();
    bool wrote = false;
    for (size_t k = 0; k < kPipeline; ++k) {
      batch.push_back(stream.Next());
      wrote |= !batch.back().read;
    }
    out.issued += batch.size();
    if (!RunBatch(ctx, client, c, batch, expected, owned, out, &last_write_lsn,
                  parent_span)) {
      return;
    }
    uncommitted |= wrote;
    if (wrote && ++write_batches % ctx.config.commit_every == 0) {
      if (!WireCommit(ctx, client, last_write_lsn, out, parent_span)) return;
      uncommitted = false;
    }
  }
  arrival.Wait();
  OpSamples tail;
  if (uncommitted &&
      !WireCommit(ctx, client, last_write_lsn, tail, parent_span)) {
    return;
  }
  // Where the read-backs give the read figures, one pass lasts only tens
  // of ms and a brief stall moves its p99 far; more passes steady it.
  const size_t passes = ctx.config.read_fraction > 0 ? 1 : kReadBackPasses;
  ReadBack(ctx, client, c, expected, owned, passes, tail, parent_span);
  out.readback_us = std::move(tail.read_us);
}

/// The same op stream as WireClient's, through engine::Dispatch on an
/// in-process session: the wire-free cost of each command. The tail is
/// kept apart as WireClient keeps it.
void DispatchClient(Context& ctx, MiniDb& db, size_t c, size_t ops,
                    OpStream stream, const std::vector<Page>& expected,
                    OwnedSlots& owned, OpSamples& out, uint32_t parent_span) {
  Ledger& ledger = ctx.ledger;
  MiniDb::Session session = db.NewSession();
  auto run = [&](const Command& command, const char* span_name,
                 std::vector<double>& samples) -> Reply {
    const int64_t t0 = NowNs();
    Reply reply = redo::engine::Dispatch(session, command);
    const int64_t t1 = NowNs();
    ctx.spans.Add(parent_span, span_name, t0, t1);
    if (reply.ok()) samples.push_back(Us(t1 - t0));
    return reply;
  };
  Lsn last_write_lsn = 0;
  auto commit = [&](std::vector<double>& samples) {
    const Reply r = run(redo::engine::MakeCommitCommand(), "engine.commit",
                        samples);
    ledger.Check(r.ok() && r.lsn >= last_write_lsn && r.stable_lsn >= r.lsn,
                 [&] { return "dispatch commit not covered: " + r.message; });
  };
  size_t write_batches = 0;
  bool wrote = false;
  bool uncommitted = false;
  for (size_t i = 0; i < ops; ++i) {
    const Op op = stream.Next();
    if (op.read) {
      const Reply r = run(redo::engine::MakeReadSlotCommand(op.page, op.slot),
                          "engine.read", out.read_us);
      ledger.Check(r.ok() && r.value == expected[op.page].ReadSlot(op.slot),
                   "dispatch read mismatch");
    } else {
      const Reply r = run(redo::engine::MakeWriteSlotCommand(
                              op.page, static_cast<uint32_t>(c), op.value),
                          "engine.write", out.write_us);
      if (ledger.Check(r.ok(), [&] { return "dispatch write: " + r.message; })) {
        owned.last[op.page] = op.value;
        owned.written[op.page] = 1;
        last_write_lsn = std::max(last_write_lsn, r.lsn);
      }
      wrote = true;
    }
    if ((i + 1) % kPipeline == 0) {
      uncommitted |= wrote;
      if (wrote && ++write_batches % ctx.config.commit_every == 0) {
        commit(out.commit_us);
        uncommitted = false;
      }
      wrote = false;
    }
  }
  std::vector<double> tail_commit_us;
  if (uncommitted || wrote) commit(tail_commit_us);
  for (PageId page = 0; page < expected.size(); ++page) {
    const Reply r =
        run(redo::engine::MakeReadSlotCommand(page, static_cast<uint32_t>(c)),
            "engine.read", out.readback_us);
    ledger.Check(r.ok() && r.value == owned.last[page],
                 "dispatch read-back mismatch");
  }
}

/// Pages after an instant restart (and the slice that followed) against
/// the crash state: byte-identical where no client wrote, slot-identical
/// elsewhere, with each client's slot at its last acked value and the
/// probe slot at the probe's value.
void CheckInstantPages(Context& ctx, MiniDb& db,
                       const std::vector<OwnedSlots>& owned, PageId probe_page,
                       int64_t probe_value) {
  auto pages = CachedPages(db);
  if (!ctx.ledger.Check(pages.ok(), "instant: pages unreadable")) return;
  const std::vector<Page>& expected = ctx.image.expected;
  size_t mismatched = 0;
  for (PageId page = 0; page < expected.size(); ++page) {
    const Page& got = pages.value()[page];
    bool touched = page == probe_page;
    for (const OwnedSlots& o : owned) touched |= o.written[page] != 0;
    if (!touched) {
      mismatched += !(got == expected[page]);
      continue;
    }
    for (uint32_t slot = 0; slot < Page::NumSlots(); ++slot) {
      int64_t want = expected[page].ReadSlot(slot);
      if (slot < kClients) want = owned[slot].last[page];
      if (slot == kProbeSlot && page == probe_page) want = probe_value;
      if (got.ReadSlot(slot) != want) {
        ++mismatched;
        break;
      }
    }
  }
  ctx.ledger.Check(mismatched == 0, "instant: " + std::to_string(mismatched) +
                                        " pages differ from the crash state");
}

std::vector<OwnedSlots> FreshOwnedSlots(const std::vector<Page>& expected) {
  std::vector<OwnedSlots> owned(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    owned[c].written.assign(expected.size(), 0);
    owned[c].last.resize(expected.size());
    for (PageId page = 0; page < expected.size(); ++page) {
      owned[c].last[page] = expected[page].ReadSlot(c);
    }
  }
  return owned;
}

/// The serve slice on an instant-restarted engine: kClients closed-loop
/// TCP clients for `slice_ms`; in traced rounds the same streams again
/// through in-process Dispatch. Every figure of the slice is taken when
/// the last client's mix ends, before the clients' tails.
void ServeSlice(Context& ctx, MiniDb& db, redo::net::NetServer& server,
                int slice_ms, uint64_t stream_seed,
                std::vector<OwnedSlots>& owned, uint32_t round_span,
                bool traced, bool warmup) {
  Accumulator& acc = ctx.acc;
  const redo::net::NetServerStats& net = server.stats();
  const Snapshot before = db.metrics().TakeSnapshot();
  const uint64_t bytes_in = net.bytes_in.load();
  const uint64_t bytes_out = net.bytes_out.load();
  const uint64_t frames = net.frames_received.load();
  const int64_t stable_before = db.log().stats().stable_bytes;
  LatchWaitDrain latch;
  if (traced) latch.Start();
  const ProcessUsage usage_before = ProcessUsage::Now();
  const HostCpu host_before = HostCpu::Now();

  // Set at the end of the mix.
  int64_t t1 = 0;
  ProcessUsage usage;
  HostCpu host_mix_end;
  Snapshot delta;
  double bytes_in_delta = 0, bytes_out_delta = 0, frames_delta = 0;
  double log_bytes = 0;
  uint64_t events_dropped = 0;
  auto at_mix_end = [&] {
    t1 = NowNs();
    usage = ProcessUsage::Now();
    host_mix_end = HostCpu::Now();
    delta = db.metrics().TakeSnapshot().Delta(before);
    bytes_in_delta = static_cast<double>(net.bytes_in.load() - bytes_in);
    bytes_out_delta = static_cast<double>(net.bytes_out.load() - bytes_out);
    frames_delta = static_cast<double>(net.frames_received.load() - frames);
    log_bytes = static_cast<double>(db.log().stats().stable_bytes - stable_before);
    events_dropped = latch.Stop();
  };
  MixBarrier mix_end(kClients, MixEnd{at_mix_end});

  std::vector<OpSamples> samples(kClients);
  const uint32_t slice_span = ctx.spans.Reserve();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(slice_ms) * 1000000;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        WireClient(ctx, server.port(), c, deadline,
                   OpStream(ctx.config, c, stream_seed, ctx.zipf),
                   ctx.image.expected, owned[c], samples[c], mix_end,
                   slice_span);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const HostCpu host_tail_end = HostCpu::Now();
  ctx.spans.Record(slice_span, round_span, "serve.wire", t0, NowNs());

  OpSamples wire;
  for (const OpSamples& s : samples) wire.Append(s);
  if (warmup) return;
  const bool mix_reads = ctx.config.read_fraction > 0;
  const double ops = static_cast<double>(wire.acked);
  const double seconds = static_cast<double>(t1 - t0) / 1e9;
  acc.wire.Append(wire);
  Accumulator::Slice& slice = acc.slices.emplace_back();
  // Where the read figures come from the read-backs, a slice is as
  // stolen from as the worse of its mix and its tail.
  slice.steal = host_mix_end.StealShareSince(host_before);
  if (!mix_reads) {
    slice.steal =
        std::max(slice.steal, host_tail_end.StealShareSince(host_mix_end));
  }
  slice.values["ops_s"] = Ratio(ops, seconds);
  const struct {
    const char* name;
    const std::vector<double>& samples;
  } kinds[] = {{"write", wire.write_us}, {"commit", wire.commit_us},
               {"read", wire.reads(mix_reads)}};
  for (const auto& [name, samples] : kinds) {
    if (samples.empty()) continue;
    slice.values[std::string(name) + "_p50_us"] = ExactPercentile(samples, 0.50);
    slice.values[std::string(name) + "_p99_us"] = ExactPercentile(samples, 0.99);
  }
  acc.writes_acked += wire.write_us.size();
  acc.log_bytes += log_bytes;
  if (ctx.config.serving) {
    (traced ? acc.headline_traced : acc.headline_untraced)
        .push_back(Ratio(seconds * 1e6, ops));  // us per op: lower is better
  }
  if (!traced) return;

  ctx.ledger.Check(events_dropped == 0, [&] {
    return "flight recorder dropped " + std::to_string(events_dropped) +
           " events of a traced slice";
  });
  acc.Layer("net.bytes_in_per_op", Ratio(bytes_in_delta, ops));
  acc.Layer("net.bytes_out_per_op", Ratio(bytes_out_delta, ops));
  acc.Layer("net.frames_per_op", Ratio(frames_delta, ops));
  acc.Layer("host.user_us_per_op",
            Ratio(static_cast<double>(usage.user_us - usage_before.user_us), ops));
  acc.Layer("host.sys_us_per_op",
            Ratio(static_cast<double>(usage.sys_us - usage_before.sys_us), ops));
  acc.Layer("host.ctx_switches_per_op",
            Ratio(static_cast<double>(usage.ctx_switches - usage_before.ctx_switches),
                  ops));
  const double commits = static_cast<double>(delta.Value("wal.group_commits"));
  acc.Layer("wal.commits_per_force",
            Ratio(commits, static_cast<double>(delta.Value("wal.group_batches"))));
  acc.Layer("wal.max_batch", static_cast<double>(db.log().stats().group_max_batch));
  acc.Layer("wal.ring_stalls", static_cast<double>(delta.Value("wal.group_ring_stalls")));
  acc.Layer("wal.commit.stage_wait_us",
            HistogramMeanUs(delta, "wal.commit.stage_wait_us"));
  acc.Layer("wal.commit.force_us", HistogramMeanUs(delta, "wal.commit.force_us"));
  acc.Layer("wal.commit.ack_wait_us",
            HistogramMeanUs(delta, "wal.commit.ack_wait_us"));
  acc.Layer("round.pool.hits", static_cast<double>(delta.Value("pool.hits")));
  acc.Layer("round.pool.fetches", static_cast<double>(delta.Value("pool.fetches")));
  acc.Layer("engine.latch_wait_us", Ratio(latch.latch_wait_us, latch.session_ops));

  // The same streams, in process, on the same thread count.
  const uint32_t dispatch_span = ctx.spans.Reserve();
  const int64_t d0 = NowNs();
  std::vector<OpSamples> dispatched(kClients);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        DispatchClient(ctx, db, c, samples[c].issued,
                       OpStream(ctx.config, c, stream_seed, ctx.zipf),
                       ctx.image.expected, owned[c], dispatched[c],
                       dispatch_span);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ctx.spans.Record(dispatch_span, round_span, "serve.dispatch", d0, NowNs());
  for (const OpSamples& s : dispatched) acc.dispatch.Append(s);
}

/// One instant restart of `db`: start the server, crash, check,
/// RecoverInstant, a fresh client's write+commit (the probe), wait for
/// the drain, and optionally the serve slices. The probe writes, so the
/// engine is spent afterwards. Times run from the crash; the image
/// check between crash and recovery is not counted.
void InstantRestart(Context& ctx, MiniDb& db, uint32_t round_span, bool traced,
                    int slice_ms, bool warmup) {
  Ledger& ledger = ctx.ledger;
  redo::engine::EngineOptions engine = db.engine_options();
  engine.parallel_workers = 1;
  db.set_engine_options(engine);
  const redo::engine::MiniDbOptions options = ServerOptions(db.num_pages());
  redo::net::NetServer server(&db, options.net);
  const Status started = server.Start();
  if (!ledger.Check(started.ok(), "server start: " + started.ToString())) {
    return;
  }
  const PageId probe_page =
      static_cast<PageId>(ctx.rng.Below(db.num_pages()));
  const int64_t probe_value = static_cast<int64_t>(ctx.rng.Next() >> 2) + 1;
  const int64_t crash_ns = CrashToImage(ctx, db, "recover.instant");
  if (crash_ns < 0) return;
  std::unique_ptr<redo::obs::RecoveryTracer> tracer;
  if (traced) {
    tracer = std::make_unique<redo::obs::RecoveryTracer>(&db.metrics());
    db.Attach({nullptr, tracer.get()});
  }
  const Snapshot before = db.metrics().TakeSnapshot();
  const int64_t t1 = NowNs();
  const int64_t t0 = t1 - crash_ns;  // the crash, less the image check
  const Status recovered = db.RecoverInstant();
  const int64_t t2 = NowNs();
  bool ok = ledger.Check(recovered.ok(), "RecoverInstant: " + recovered.ToString());
  Lsn probe_lsn = 0;
  int64_t t_connected = t2, t_written = t2, t_acked = t2;
  if (ok) {
    redo::net::NetClient probe;
    auto serving = probe.AwaitServing(kHost, server.port(), kConnectDeadlineMs);
    t_connected = NowNs();
    ok = ledger.Check(serving.ok(), "probe reconnect: " + serving.status().ToString());
    if (ok) {
      auto wrote = probe.Call(
          redo::engine::MakeWriteSlotCommand(probe_page, kProbeSlot, probe_value));
      t_written = NowNs();
      ok = ledger.Check(wrote.ok() && wrote.value().ok(), "probe write failed");
      if (ok) probe_lsn = wrote.value().lsn;
    }
    if (ok) {
      auto committed = probe.Call(redo::engine::MakeCommitCommand());
      t_acked = NowNs();
      ok = ledger.Check(committed.ok() && committed.value().ok() &&
                            committed.value().lsn >= probe_lsn &&
                            committed.value().stable_lsn >= probe_lsn,
                        "probe commit not covered");
    }
  }
  const Status drained = ok ? db.WaitUntilRecovered() : Status::Ok();
  const int64_t t3 = NowNs();
  ok = ok && ledger.Check(drained.ok(), "WaitUntilRecovered: " + drained.ToString());
  if (ok && !warmup) {
    ctx.acc.ttfc_ms.push_back(Ms(t_acked - t0));
    ctx.acc.instant_done_ms.push_back(Ms(t3 - t0));
  }
  const Snapshot delta = db.metrics().TakeSnapshot().Delta(before);
  if (ok && traced) {
    const uint32_t restart = ctx.spans.Reserve();
    ctx.spans.Add(restart, "crash", t0, t1);
    const uint32_t recover = ctx.spans.Reserve();
    PhaseSpans(ctx.spans, recover, "recover.instant", t1, *tracer);
    ctx.spans.Record(recover, restart, "recover.instant", t1, t2);
    ctx.spans.Add(restart, "probe.reconnect", t2, t_connected);
    ctx.spans.Add(restart, "probe.write", t_connected, t_written);
    ctx.spans.Add(restart, "probe.commit", t_written, t_acked);
    ctx.spans.Add(restart, "drain.wait", t_acked, t3);
    ctx.spans.Record(restart, round_span, "restart.instant", t0, t3);
    auto counter = [&](const char* name) {
      return static_cast<double>(delta.Value(name));
    };
    ctx.acc.Layer("instant.pages_on_demand", counter("redo.instant.pages_on_demand"));
    ctx.acc.Layer("instant.pages_background", counter("redo.instant.pages_background"));
    ctx.acc.Layer("instant.tasks_applied", counter("redo.instant.tasks_applied"));
    ctx.acc.Layer("instant.tasks_skipped", counter("redo.instant.tasks_skipped"));
    ctx.acc.Layer("round.pool.hits", counter("pool.hits"));
    ctx.acc.Layer("round.pool.fetches", counter("pool.fetches"));
    ctx.acc.Layer("round.disk.reads", counter("disk.reads"));
    ctx.acc.Layer("round.disk.writes", counter("disk.writes"));
  }
  std::vector<OwnedSlots> owned = FreshOwnedSlots(ctx.image.expected);
  for (size_t k = 0; ok && slice_ms > 0 && k < ctx.config.serve_slices; ++k) {
    ServeSlice(ctx, db, server, slice_ms, ctx.rng.Next(), owned, round_span,
               traced, warmup);
  }
  server.Stop();
  if (db.concurrent()) {
    const Status ended = db.EndConcurrent();
    ok = ledger.Check(ended.ok(), "EndConcurrent: " + ended.ToString()) && ok;
  }
  if (traced) db.Attach({});
  if (!ok) return;
  // The probe's commit is durable: its write is in the stable log.
  auto stable = db.log().StableRecords(probe_lsn);
  ledger.Check(stable.ok() && !stable.value().empty() &&
                   stable.value().front().lsn == probe_lsn,
               "probe write missing from the stable log");
  CheckInstantPages(ctx, db, owned, probe_page, probe_value);
}

/// One round on fresh copies of the image: quiescing_restarts x (serial,
/// parallel) on the first copy, then instant_restarts instant restarts
/// (the first on that copy, the rest on new ones), the last followed by
/// the serve slices.
void Round(Context& ctx, int slice_ms, bool traced, bool warmup) {
  const uint32_t round_span = ctx.spans.Reserve();
  const int64_t t0 = NowNs();
  for (size_t r = 0; r < ctx.config.instant_restarts; ++r) {
    auto restored = RestoreImage(ctx.image, 1);
    if (!ctx.ledger.Check(restored.ok(),
                          "restore: " + restored.status().ToString())) {
      break;
    }
    MiniDb& db = *restored.value();
    for (size_t q = 0; r == 0 && q < ctx.config.quiescing_restarts; ++q) {
      QuiescingRestart(ctx, db, 1, round_span, traced);
      QuiescingRestart(ctx, db, 4, round_span, traced);
    }
    const bool last = r + 1 == ctx.config.instant_restarts;
    InstantRestart(ctx, db, round_span, traced, last ? slice_ms : 0, warmup);
  }
  ctx.spans.Record(round_span, 0, traced ? "round.traced" : "round", t0,
                   NowNs());
}

void Put(RunResult& result, const std::string& name, double value,
         const std::string& unit, uint64_t samples) {
  result.metrics[name] = Metric{value, unit, samples};
}

double MedianOf(const Accumulator& acc, const std::string& name) {
  auto it = acc.layer.find(name);
  return it == acc.layer.end() ? 0 : Median(it->second);
}

void EndToEndMetrics(const Accumulator& acc, bool mix_reads, RunResult& result) {
  const OpSamples& w = acc.wire;
  // A closed loop's tail on a shared VM is set by the other tenants
  // while the hypervisor steals CPU from it, so the medians use the
  // slices that lost at most kMaxSteal of the host's CPU, or the
  // least-stolen slice when none was that calm. The report counts the
  // slices set aside and keeps every slice's figures.
  std::vector<const Accumulator::Slice*> used;
  for (const Accumulator::Slice& s : acc.slices) used.push_back(&s);
  std::stable_sort(used.begin(), used.end(),
                   [](const Accumulator::Slice* a, const Accumulator::Slice* b) {
                     return a->steal < b->steal;
                   });
  size_t keep = 0;
  while (keep < used.size() && (keep == 0 || used[keep]->steal <= kMaxSteal)) {
    ++keep;
  }
  used.resize(keep);
  result.facts["serve_slices"] = static_cast<double>(acc.slices.size());
  result.facts["serve_slices_set_aside"] =
      static_cast<double>(acc.slices.size() - used.size());
  for (const Accumulator::Slice& s : acc.slices) {
    result.series["slice_steal"].push_back(s.steal);
    for (const auto& [name, value] : s.values) result.series[name].push_back(value);
  }
  auto slice_median = [&](const std::string& name) {
    std::vector<double> values;
    for (const Accumulator::Slice* s : used) {
      auto it = s->values.find(name);
      if (it != s->values.end()) values.push_back(it->second);
    }
    return Median(values);
  };
  Put(result, "ops_s", slice_median("ops_s"), "1/s", w.acked);
  Put(result, "write_p50_us", slice_median("write_p50_us"), "us", w.write_us.size());
  Put(result, "write_p99_us", slice_median("write_p99_us"), "us", w.write_us.size());
  Put(result, "commit_p50_us", slice_median("commit_p50_us"), "us",
      w.commit_us.size());
  Put(result, "commit_p99_us", slice_median("commit_p99_us"), "us",
      w.commit_us.size());
  const size_t reads = w.reads(mix_reads).size();
  Put(result, "read_p50_us", slice_median("read_p50_us"), "us", reads);
  Put(result, "read_p99_us", slice_median("read_p99_us"), "us", reads);
  Put(result, "recover_ms", Median(acc.recover_ms), "ms", acc.recover_ms.size());
  Put(result, "recover_par_ms", Median(acc.recover_par_ms), "ms",
      acc.recover_par_ms.size());
  // One restart's ttfc is spread near-evenly over 15-120 ms on
  // read-mostly (nearly all of it is the probe's write waiting behind
  // the background drain); over such a spread the mean is the steadier
  // summary.
  Put(result, "ttfc_ms", Mean(acc.ttfc_ms), "ms", acc.ttfc_ms.size());
  Put(result, "instant_done_ms", Median(acc.instant_done_ms), "ms",
      acc.instant_done_ms.size());
  Put(result, "log_bytes_per_op",
      Ratio(acc.log_bytes, static_cast<double>(acc.writes_acked)), "B/op",
      acc.writes_acked);
}

void PerLayerMetrics(const Accumulator& acc, bool mix_reads,
                     const std::vector<Span>& spans, RunResult& result) {
  const uint64_t rounds = acc.headline_traced.size();
  // The serial recovery's phases and its unattributed remainder (the
  // recovery span's self time), per recovery.
  const std::map<std::string, SelfTimeTotal> totals = SelfTimesByName(spans);
  auto total = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? SelfTimeTotal{} : it->second;
  };
  const SelfTimeTotal serial = total("recover.serial");
  auto per_recovery_ms = [&](int64_t ns) {
    return Ratio(static_cast<double>(ns) / 1e6, static_cast<double>(serial.count));
  };
  const struct {
    const char* metric;
    const char* phase;
  } phases[] = {{"recovery.salvage_ms", "salvage"},
                {"recovery.analysis_ms", "analysis"},
                {"recovery.redo_ms", "redo-scan"},
                {"recovery.undo_ms", "undo"}};
  for (const auto& p : phases) {
    Put(result, p.metric,
        per_recovery_ms(total(std::string("recover.serial.") + p.phase).total_ns),
        "ms", serial.count);
  }
  Put(result, "recovery.unattributed_ms", per_recovery_ms(serial.self_ns), "ms",
      serial.count);
  // net: client round trip minus the in-process Dispatch of the same
  // stream, at the median.
  const OpSamples& w = acc.wire;
  const OpSamples& d = acc.dispatch;
  Put(result, "net.wire_us.write",
      ExactPercentile(w.write_us, 0.5) - ExactPercentile(d.write_us, 0.5), "us",
      w.write_us.size());
  Put(result, "net.wire_us.read",
      ExactPercentile(w.reads(mix_reads), 0.5) -
          ExactPercentile(d.reads(mix_reads), 0.5),
      "us", w.reads(mix_reads).size());
  Put(result, "net.wire_us.commit",
      ExactPercentile(w.commit_us, 0.5) - ExactPercentile(d.commit_us, 0.5),
      "us", w.commit_us.size());
  const struct {
    const char* name;
    const std::vector<double>& samples;
  } dispatch[] = {{"write", d.write_us}, {"read", d.reads(mix_reads)},
                  {"commit", d.commit_us}};
  for (const auto& [name, samples] : dispatch) {
    const std::string base = std::string("engine.dispatch_us.") + name;
    Put(result, base + ".p50", ExactPercentile(samples, 0.5), "us",
        samples.size());
    Put(result, base + ".p99", ExactPercentile(samples, 0.99), "us",
        samples.size());
  }
  const struct {
    const char* name;
    const char* unit;
  } medians[] = {
      {"net.bytes_in_per_op", "B/op"},
      {"net.bytes_out_per_op", "B/op"},
      {"net.frames_per_op", "1/op"},
      {"engine.latch_wait_us", "us/op"},
      {"wal.commits_per_force", "1/force"},
      {"wal.max_batch", "count"},
      {"wal.ring_stalls", "count"},
      {"wal.commit.stage_wait_us", "us"},
      {"wal.commit.force_us", "us"},
      {"wal.commit.ack_wait_us", "us"},
      {"wal.scan_decodes", "count"},
      {"wal.scan_cache_hits", "count"},
      {"redo.tasks", "count"},
      {"redo.handoffs", "count"},
      {"redo.cross_edges", "count"},
      {"redo.blind_installs", "count"},
      {"redo.apply_busy_ms", "ms"},
      {"redo.critical_path_ms", "ms"},
      {"redo.serial_share", "frac"},
      {"redo.useful_ratio", "frac"},
      {"instant.pages_on_demand", "count"},
      {"instant.pages_background", "count"},
      {"instant.tasks_applied", "count"},
      {"instant.tasks_skipped", "count"},
      {"host.user_us_per_op", "us/op"},
      {"host.sys_us_per_op", "us/op"},
      {"host.ctx_switches_per_op", "1/op"},
  };
  for (const auto& m : medians) Put(result, m.name, MedianOf(acc, m.name), m.unit, rounds);
  // Pool and disk: per round, summed over the round's restarts and its
  // serve slice.
  auto per_round = [&](const std::string& name) {
    auto it = acc.layer.find(name);
    if (it == acc.layer.end() || rounds == 0) return 0.0;
    double sum = 0;
    for (double v : it->second) sum += v;
    return sum / static_cast<double>(rounds);
  };
  const double fetches = per_round("round.pool.fetches");
  Put(result, "pool.hit_ratio", Ratio(per_round("round.pool.hits"), fetches),
      "frac", rounds);
  Put(result, "pool.misses", fetches - per_round("round.pool.hits"), "count",
      rounds);
  Put(result, "disk.reads", per_round("round.disk.reads"), "count", rounds);
  Put(result, "disk.writes", per_round("round.disk.writes"), "count", rounds);
  // Tracing cost, on each workload's headline metric.
  double overhead = 0;
  if (!acc.headline_traced.empty() && !acc.headline_untraced.empty()) {
    const double traced = Median(acc.headline_traced);
    const double untraced = Median(acc.headline_untraced);
    overhead = Ratio(traced - untraced, untraced);
  }
  Put(result, "obs.trace_overhead_frac", overhead, "frac", rounds);
}

}  // namespace

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> workloads = [] {
    redo::engine::WorkloadOptions mix;
    mix.checkpoint_probability = 0;
    std::vector<WorkloadConfig> w(3);
    w[0].name = "write-commit";
    w[0].image = {redo::methods::MethodKind::kPhysiological, 1024, 20000, mix};
    w[0].read_fraction = 0;
    w[0].zipf_skew = 0;
    w[0].commit_every = 4;
    w[0].serving = true;
    w[0].quiescing_restarts = 3;
    w[0].instant_restarts = 4;
    w[0].setup_reps = 11;

    w[1].name = "read-mostly";
    w[1].image = {redo::methods::MethodKind::kPhysiological, 4096, 20000, mix};
    w[1].read_fraction = 0.9;
    w[1].zipf_skew = 0.9;
    w[1].commit_every = 1;
    w[1].serving = true;
    w[1].quiescing_restarts = 1;
    w[1].instant_restarts = 6;
    w[1].serve_slices = 2;
    w[1].setup_reps = 11;

    w[2].name = "restart-lsn";
    w[2].image = {redo::methods::MethodKind::kPhysiological, 1024, 200000, mix};
    w[2].read_fraction = 0;
    w[2].commit_every = 4;
    w[2].serving = false;
    w[2].quiescing_restarts = 1;
    w[2].instant_restarts = 1;
    w[2].serve_slices = 2;

    return w;
  }();
  return workloads;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RunResult RunWorkload(const WorkloadConfig& config, const RunOptions& options) {
  RunResult result;
  Ledger ledger;
  SpanLog spans(options.trace);

  // Set-up: build the crash image setup_reps times (every build must be
  // the same image); setup_s is the median build time.
  std::vector<double> setup_s;
  CrashImage image;
  for (size_t i = 0; i < config.setup_reps; ++i) {
    const int64_t t0 = NowNs();
    auto built = BuildImage(config.image, options.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!ledger.Check(built.ok(), "build image: " + built.status().ToString())) {
      result.attempted = ledger.attempted();
      result.failed = ledger.failed();
      result.failures = ledger.messages();
      return result;
    }
    if (i > 0) {
      ledger.Check(built.value().disk_hash == image.disk_hash &&
                       built.value().log_hash == image.log_hash &&
                       built.value().expected_hash == image.expected_hash,
                   "image build is not deterministic");
    }
    image = std::move(built).value();
  }

  Context ctx{config, image, ledger, spans,
              redo::ZipfSampler(config.image.num_pages, config.zipf_skew),
              redo::Rng(options.seed ^ 0xbe7c4a11ULL), Accumulator{}};
  // Slices short enough that a run holds many of them: their median
  // rides out a few stolen ones.
  const int slice_ms = std::max(250, static_cast<int>(options.seconds * 1000 / 40));
  Round(ctx, slice_ms / 4, /*traced=*/false, /*warmup=*/true);
  ctx.acc = Accumulator{};

  const HostCpu host_before = HostCpu::Now();
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(options.seconds * 1e9);
  // A traced run alternates traced and untraced rounds, so the tracing
  // cost is measured within the run; it needs at least one of each.
  const size_t min_rounds = options.trace ? 2 : 1;
  size_t rounds = 0;
  while (rounds < min_rounds || NowNs() - start < budget) {
    const bool traced = options.trace && rounds % 2 == 0;
    const size_t before = ctx.acc.recover_ms.size();
    Round(ctx, slice_ms, traced, /*warmup=*/false);
    if (!config.serving && ctx.acc.recover_ms.size() > before) {
      (traced ? ctx.acc.headline_traced : ctx.acc.headline_untraced)
          .push_back(ctx.acc.recover_ms.back());
    }
    ++rounds;
  }

  const bool mix_reads = config.read_fraction > 0;
  if (options.trace) {
    PerLayerMetrics(ctx.acc, mix_reads, spans.spans(), result);
    result.series["headline_traced"] = ctx.acc.headline_traced;
    result.series["headline_untraced"] = ctx.acc.headline_untraced;
  } else {
    result.series["recover_ms"] = ctx.acc.recover_ms;
    result.series["recover_par_ms"] = ctx.acc.recover_par_ms;
    result.series["ttfc_ms"] = ctx.acc.ttfc_ms;
    result.series["instant_done_ms"] = ctx.acc.instant_done_ms;
    result.series["setup_s"] = setup_s;
    EndToEndMetrics(ctx.acc, mix_reads, result);
    Put(result, "setup_s", Median(setup_s), "s", setup_s.size());
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    Put(result, "rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", 1);
  }
  if (options.trace && !options.span_path.empty() &&
      !spans.WriteCsv(options.span_path)) {
    ledger.Fail("cannot write spans to " + options.span_path);
  }
  result.facts["host_steal_frac"] = HostCpu::Now().StealShareSince(host_before);
  result.facts["rounds"] = static_cast<double>(rounds);
  result.facts["image_pages"] = static_cast<double>(config.image.num_pages);
  result.facts["image_records"] = static_cast<double>(image.log.size());
  result.facts["image_log_mb"] = static_cast<double>(image.log_bytes) / 1e6;
  result.facts["spans"] = static_cast<double>(spans.size());
  result.attempted = ledger.attempted();
  result.failed = ledger.failed();
  result.failures = ledger.messages();
  return result;
}

}  // namespace perfbench
