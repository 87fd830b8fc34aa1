// Parallel-redo planning: turn the stable-log suffix into a task
// list whose dependency structure *is* the paper's write graph (§5).
//
// Two logged operations with no path between them in the write graph
// commute, so recovery may apply them in either order — or concurrently
// (§5, Figures 7–8). For this engine's operations the graph is simple:
// a task conflicts with another iff they touch a common page, so the
// graph decomposes into per-page chains, stitched together by the
// multi-page records (kPageSplit and the generalized B-tree ops) whose
// two pages bridge two chains. BuildTaskDag materializes that graph;
// the scheduler (scheduler.h) executes a linear extension of it.

#ifndef REDO_REDO_PLAN_H_
#define REDO_REDO_PLAN_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/dag.h"
#include "core/types.h"
#include "engine/ops.h"
#include "engine/txn.h"
#include "storage/page.h"
#include "util/status.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace redo::par {

/// How one log record replays.
enum class RedoTaskKind : uint8_t {
  kSinglePage,  ///< one single-page op (incl. unwrapped kLogicalOp)
  kPageImage,   ///< overwrite one page with a logged full image
  kSplitDst,    ///< generalized split (§6.4): read src, write dst
  kWholeSplit,  ///< logical whole split: write dst AND rewrite src
  kClrRestore,  ///< CLR: restore each action's page (absolute, blind)
};

/// One planned unit of redo work, in log order. Planning peeks only
/// the record header (which pages, whether the op reads them); the
/// heavy parts — single-page op args, 4KB page images — stay encoded in
/// the record the task points at and decode on the worker that applies
/// them, after the redo test passed. Most tasks of an LSN-test
/// recovery are skipped, so most records are never decoded at all.
struct RedoTask {
  core::Lsn lsn = core::kNullLsn;
  RedoTaskKind kind = RedoTaskKind::kSinglePage;
  /// kSinglePage: the op does not read its page (a blind write).
  bool blind = false;
  storage::PageId page = 0;         ///< kSinglePage / kPageImage
  engine::SplitOp split;            ///< kSplitDst / kWholeSplit
  /// The record this task replays; see RedoPlan for how long it lives.
  const wal::LogRecord* record = nullptr;
  /// kClrRestore: the compensation record's absolute restores. Each
  /// action touches exactly one page, so workers apply the actions whose
  /// pages they own with no cross-worker hand-off (unlike splits, no
  /// value flows between the pages).
  std::vector<engine::UndoAction> clr_actions;

  /// kSinglePage: decodes the op from the record (a kLogicalOp record
  /// unwrapped to its inner single-page op).
  Result<engine::SinglePageOp> DecodeOp() const;
  /// kPageImage: the Page::kSize logged image bytes, inside the record.
  const uint8_t* ImageBytes() const;

  /// Pages the task writes (write-graph conflict set).
  std::vector<storage::PageId> Writes() const;
  /// Pages the task reads without writing them.
  std::vector<storage::PageId> Reads() const;
};

/// Plans one record into `*task` (which must be default-constructed);
/// false for records that carry no redo work (checkpoints, transaction
/// metadata). `whole_splits` selects the logical method's record shape:
/// one kPageSplit record replays both halves (dst := P(src), then the
/// src rewrite Q) as a single atomic task; otherwise the record writes
/// dst only and the rewrite arrives as its own single-page record. The
/// task points into `record`, which must outlive it.
Result<bool> PlanRecord(const wal::LogRecord& record, bool whole_splits,
                        RedoTask* task);

/// The redo plan: every task of the stable-log suffix, ascending LSN.
///
/// Lifetime rule. Tasks point into log records instead of copying
/// them. A plan built from the log (the borrowing BuildRedoPlan) points
/// into the log's parsed-record cache, which stays valid until the log
/// is next appended to, forced, sealed, salvaged, truncated, scrubbed
/// or fault-hooked — so a borrowed plan lives only inside one quiescing
/// redo pass, which runs before undo appends its CLRs. Records the scan
/// decoded from unverified tail bytes are temporaries, so the plan
/// copies those into `owned`. The owning BuildRedoPlan moves all its
/// records into `owned`: instant restart needs that, because sessions
/// append (and force) while its plan drains. A plan is move-only;
/// moving it keeps every task's record in place.
struct RedoPlan {
  RedoPlan() = default;
  RedoPlan(RedoPlan&&) = default;
  RedoPlan& operator=(RedoPlan&&) = default;
  RedoPlan(const RedoPlan&) = delete;
  RedoPlan& operator=(const RedoPlan&) = delete;

  std::vector<RedoTask> tasks;    ///< ascending LSN
  size_t multi_page_tasks = 0;    ///< tasks touching two pages (splits)
  /// Records the plan itself keeps alive. A deque: growing it (or
  /// moving the plan) never moves an element a task points at.
  std::deque<wal::LogRecord> owned;
};

/// Plans the stable records with lsn >= `from`, borrowing them from
/// `log` (see the lifetime rule above); checkpoints and transaction
/// metadata carry no task.
Result<RedoPlan> BuildRedoPlan(const wal::LogManager& log, core::Lsn from,
                               bool whole_splits);

/// The owning form: plans `records` and keeps them in the plan.
Result<RedoPlan> BuildRedoPlan(std::vector<wal::LogRecord> records,
                               bool whole_splits);

/// The plan's write graph over task indices. Edge rule (§5): two tasks
/// conflict iff they touch a common page (read-write or write-write),
/// and conflicting tasks are ordered low LSN -> high LSN, so the graph
/// is acyclic by construction. Only chain edges are added (each page's
/// consecutive touchers); the transitive closure equals the full
/// conflict order. Any linear extension is a correct redo order — the
/// scheduler realizes one by keeping each worker in LSN order and
/// handing split pages across workers.
core::Dag BuildTaskDag(const RedoPlan& plan);

}  // namespace redo::par

#endif  // REDO_REDO_PLAN_H_
