#include "db/plan.h"

#include "support/check.h"

namespace stc::db {

const char* to_string(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSeqScan: return "SeqScan";
    case PlanKind::kIndexScan: return "IndexScan";
    case PlanKind::kFilter: return "Filter";
    case PlanKind::kProject: return "Project";
    case PlanKind::kNLJoin: return "NestLoopJoin";
    case PlanKind::kIndexNLJoin: return "IndexNLJoin";
    case PlanKind::kHashJoin: return "HashJoin";
    case PlanKind::kMergeJoin: return "MergeJoin";
    case PlanKind::kSort: return "Sort";
    case PlanKind::kAggregate: return "Aggregate";
    case PlanKind::kLimit: return "Limit";
    case PlanKind::kMaterialize: return "Materialize";
  }
  return "?";
}

const char* to_string(AggOp op) {
  switch (op) {
    case AggOp::kSum: return "SUM";
    case AggOp::kCount: return "COUNT";
    case AggOp::kAvg: return "AVG";
    case AggOp::kMin: return "MIN";
    case AggOp::kMax: return "MAX";
  }
  return "?";
}

namespace {

void explain_into(const PlanNode& node, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += to_string(node.kind);
  if (node.table != nullptr) {
    out += " ";
    out += node.table->name;
  }
  if (node.index != nullptr) {
    out += " using ";
    out += node.index->name;
  }
  if (node.kind == PlanKind::kIndexScan && node.lo.has_value() &&
      node.hi.has_value() && node.lo->compare(*node.hi) == 0) {
    out.append(" (key = ").append(node.lo->to_string()).append(")");
  }
  if (node.kind == PlanKind::kAggregate) {
    out.append(" groups=")
        .append(std::to_string(node.group_cols.size()))
        .append(" aggs=")
        .append(std::to_string(node.aggs.size()));
  }
  if (node.kind == PlanKind::kLimit) {
    out.append(" ").append(std::to_string(node.limit));
  }
  out += "\n";
  for (const auto& child : node.children) {
    explain_into(*child, depth + 1, out);
  }
}

}  // namespace

std::string PlanNode::explain() const {
  std::string out;
  explain_into(*this, 0, out);
  return out;
}

std::unique_ptr<PlanNode> make_seq_scan(TableInfo* table,
                                        std::unique_ptr<Expr> qual) {
  STC_REQUIRE(table != nullptr);
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kSeqScan;
  node->table = table;
  node->qual = std::move(qual);
  node->out_schema = table->schema;
  return node;
}

std::unique_ptr<PlanNode> make_index_scan(TableInfo* table,
                                          const IndexInfo* index,
                                          std::optional<Value> lo,
                                          bool lo_inclusive,
                                          std::optional<Value> hi,
                                          bool hi_inclusive,
                                          std::unique_ptr<Expr> qual) {
  STC_REQUIRE(table != nullptr && index != nullptr);
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kIndexScan;
  node->table = table;
  node->index = index;
  node->lo = std::move(lo);
  node->hi = std::move(hi);
  node->lo_inclusive = lo_inclusive;
  node->hi_inclusive = hi_inclusive;
  node->qual = std::move(qual);
  node->out_schema = table->schema;
  return node;
}

}  // namespace stc::db
