#include "redo/plan.h"

#include <iterator>
#include <optional>
#include <unordered_map>

namespace redo::par {

std::vector<storage::PageId> RedoTask::Writes() const {
  switch (kind) {
    case RedoTaskKind::kSinglePage:
    case RedoTaskKind::kPageImage:
      return {page};
    case RedoTaskKind::kSplitDst:
      return {split.dst};
    case RedoTaskKind::kWholeSplit:
      // One atomic task writes the new page and rewrites the source.
      return {split.dst, split.src};
    case RedoTaskKind::kClrRestore: {
      std::vector<storage::PageId> writes;
      writes.reserve(clr_actions.size());
      for (const engine::UndoAction& action : clr_actions) {
        writes.push_back(action.page);
      }
      return writes;
    }
  }
  return {};
}

std::vector<storage::PageId> RedoTask::Reads() const {
  switch (kind) {
    case RedoTaskKind::kSinglePage:
      if (!blind) return {page};
      return {};
    case RedoTaskKind::kPageImage:
      return {};
    case RedoTaskKind::kSplitDst: {
      std::vector<storage::PageId> reads = {split.src};
      if (engine::SplitReadsDst(split.transform)) reads.push_back(split.dst);
      return reads;
    }
    case RedoTaskKind::kWholeSplit: {
      // src is read *and* written; Reads() reports read-only pages, so
      // only dst qualifies (and only for read-modify-write transforms).
      if (engine::SplitReadsDst(split.transform)) return {split.dst};
      return {};
    }
    case RedoTaskKind::kClrRestore:
      return {};  // restores are absolute: write-only
  }
  return {};
}

Result<engine::SinglePageOp> RedoTask::DecodeOp() const {
  if (record->type != wal::RecordType::kLogicalOp) {
    return engine::DecodeSinglePageOp(record->type, record->payload);
  }
  wal::PayloadReader r(record->payload);
  Result<uint16_t> inner_type = r.U16();
  if (!inner_type.ok()) return inner_type.status();
  Result<std::vector<uint8_t>> inner = r.Bytes(r.remaining());
  if (!inner.ok()) return inner.status();
  return engine::DecodeSinglePageOp(
      static_cast<wal::RecordType>(inner_type.value()), inner.value());
}

const uint8_t* RedoTask::ImageBytes() const {
  return record->payload.data() + (record->payload.size() - storage::Page::kSize);
}

Result<bool> PlanRecord(const wal::LogRecord& record, bool whole_splits,
                        RedoTask* task) {
  task->lsn = record.lsn;
  task->record = &record;
  wal::PayloadReader r(record.payload);
  switch (record.type) {
    case wal::RecordType::kCheckpoint:
    case wal::RecordType::kTxnBegin:
    case wal::RecordType::kTxnCommit:
    case wal::RecordType::kTxnEnd:
    case wal::RecordType::kTxnUpdate:
      return false;  // carries no redo work
    case wal::RecordType::kClr: {
      Result<engine::Clr> clr = engine::DecodeClr(record.payload);
      if (!clr.ok()) return clr.status();
      task->kind = RedoTaskKind::kClrRestore;
      task->clr_actions = std::move(clr.value().actions);
      break;
    }
    case wal::RecordType::kPageImage: {
      // Peek the page id and validate the length; the raw bytes stay
      // in the record until the owning worker installs them.
      Result<uint32_t> page = r.U32();
      if (!page.ok()) return page.status();
      if (r.remaining() != storage::Page::kSize) {
        return Status::Corruption("page image payload truncated");
      }
      task->kind = RedoTaskKind::kPageImage;
      task->page = page.value();
      break;
    }
    case wal::RecordType::kPageSplit: {
      Result<engine::SplitOp> split = engine::DecodeSplitOp(record.payload);
      if (!split.ok()) return split.status();
      task->kind = whole_splits ? RedoTaskKind::kWholeSplit
                                : RedoTaskKind::kSplitDst;
      task->split = split.value();
      break;
    }
    default: {
      // A single-page op (kLogicalOp wraps one behind its inner type):
      // peek the EncodeSinglePageOp header — page id, blind flag — and
      // leave the args for DecodeOp.
      if (record.type == wal::RecordType::kLogicalOp) {
        Result<uint16_t> inner_type = r.U16();
        if (!inner_type.ok()) return inner_type.status();
      }
      Result<uint32_t> page = r.U32();
      if (!page.ok()) return page.status();
      Result<uint8_t> blind = r.U8();
      if (!blind.ok()) return blind.status();
      task->kind = RedoTaskKind::kSinglePage;
      task->page = page.value();
      task->blind = blind.value() != 0;
      break;
    }
  }
  return true;
}

namespace {

// The one builder: appends `record`'s task (if any) to the plan. The
// record must live as long as the plan (see the lifetime rule).
Status AddTask(const wal::LogRecord& record, bool whole_splits,
               RedoPlan& plan) {
  RedoTask& task = plan.tasks.emplace_back();
  Result<bool> planned = PlanRecord(record, whole_splits, &task);
  if (!planned.ok() || !planned.value()) {
    plan.tasks.pop_back();
    return planned.status();
  }
  if (task.kind == RedoTaskKind::kSplitDst ||
      task.kind == RedoTaskKind::kWholeSplit || task.clr_actions.size() > 1) {
    ++plan.multi_page_tasks;
  }
  return Status::Ok();
}

}  // namespace

Result<RedoPlan> BuildRedoPlan(const wal::LogManager& log, core::Lsn from,
                               bool whole_splits) {
  RedoPlan plan;
  // LSNs are dense, so this bounds the task count (a torn tail past the
  // stable LSN may add a few; the vector then grows once).
  const core::Lsn stable = log.stable_lsn();
  plan.tasks.reserve(stable >= from ? stable - from + 1 : 0);
  REDO_RETURN_IF_ERROR(log.ScanStable(
      from, [&](const wal::LogRecord& record, bool transient) {
        return AddTask(transient ? plan.owned.emplace_back(record) : record,
                       whole_splits, plan);
      }));
  return plan;
}

Result<RedoPlan> BuildRedoPlan(std::vector<wal::LogRecord> records,
                               bool whole_splits) {
  RedoPlan plan;
  plan.owned.assign(std::make_move_iterator(records.begin()),
                    std::make_move_iterator(records.end()));
  plan.tasks.reserve(plan.owned.size());
  for (const wal::LogRecord& record : plan.owned) {
    REDO_RETURN_IF_ERROR(AddTask(record, whole_splits, plan));
  }
  return plan;
}

core::Dag BuildTaskDag(const RedoPlan& plan) {
  core::Dag dag(plan.tasks.size());
  // Per-page conflict chains (§5's edge rule, restricted to this
  // engine's operations): a read conflicts with the page's last write,
  // a write conflicts with the last write and every read since it.
  // Tasks are in ascending LSN order, so every edge runs forward and
  // the graph is acyclic by construction; multi-page tasks appear in
  // two pages' chains, which is where cross-partition edges come from.
  struct PageChain {
    std::optional<uint32_t> last_writer;
    std::vector<uint32_t> readers_since_write;
  };
  std::unordered_map<storage::PageId, PageChain> chains;
  for (uint32_t i = 0; i < plan.tasks.size(); ++i) {
    const RedoTask& task = plan.tasks[i];
    for (storage::PageId page : task.Reads()) {
      PageChain& chain = chains[page];
      if (chain.last_writer.has_value() && *chain.last_writer != i) {
        dag.AddEdge(*chain.last_writer, i);  // read-after-write
      }
      chain.readers_since_write.push_back(i);
    }
    for (storage::PageId page : task.Writes()) {
      PageChain& chain = chains[page];
      if (chain.last_writer.has_value() && *chain.last_writer != i) {
        dag.AddEdge(*chain.last_writer, i);  // write-after-write
      }
      for (uint32_t reader : chain.readers_since_write) {
        if (reader != i) dag.AddEdge(reader, i);  // write-after-read
      }
      chain.readers_since_write.clear();
      chain.last_writer = i;
    }
  }
  return dag;
}

}  // namespace redo::par
