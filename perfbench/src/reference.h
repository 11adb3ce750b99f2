// The benchmark's reference evaluation, built apart from the engine: an
// in-memory copy of the generated rows plus every write applied to them,
// evaluated with plain loops and maps.
//
// Every row carries the write count (version) that inserted it and the one
// that deleted it, so the state "after k acknowledged writes" can be
// evaluated for any k once the write log has been replayed. Select,
// aggregate and join shapes are tracked: their digest is kept incrementally
// for every version as writes are replayed. ORDER BY ... LIMIT is evaluated
// directly.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "tpch/generator.h"

namespace perfbench {

enum class Table { kLineitem, kOrders };

/// One WHERE condition, spelled the way it is sent to the engine.
struct Cond {
  enum class Op { kLt, kLe, kEq, kGe, kGt, kBetween };
  std::string col;
  Op op = Op::kLt;
  Value a = 0;
  Value b = 0;  // kBetween upper bound (inclusive)

  bool Eval(Value v) const;
  std::string Sql() const;
};

/// A read statement shape.
struct ReadShape {
  enum class Kind { kSelect, kAgg, kSort, kJoin };
  Kind kind = Kind::kSelect;
  // kSelect / kSort: output columns; kAgg: {group column, aggregated column}.
  std::vector<std::string> cols;
  // Lineitem conditions; for kJoin, conditions on orders.custkey.
  std::vector<Cond> conds;
  bool count = false;  // kAgg: COUNT instead of SUM
  std::string order_col;  // kSort
  bool desc = false;
  uint64_t limit = 0;

  /// SQL text (not for kJoin, which runs as a typed plan).
  std::string Sql() const;
};

/// A write statement.
struct WriteOp {
  enum class Kind { kInsert, kDelete, kUpdate };
  Kind kind = Kind::kInsert;
  Table table = Table::kLineitem;
  // kInsert: logical rows (lineitem: returnflag, shipdate, linenum,
  // quantity; orders: custkey, shipdate).
  std::vector<std::vector<Value>> rows;
  std::vector<Cond> conds;                          // kDelete / kUpdate
  std::vector<std::pair<std::string, Value>> sets;  // kUpdate
  bool typed = false;  // kInsert through Database::Insert, not SQL

  std::string Sql() const;
  /// Rows in the engine's registration order (lineitem stores LINENUM in
  /// four encodings, so a logical row becomes seven stored values).
  std::vector<std::vector<Value>> StoredRows() const;
  const char* TableName() const {
    return table == Table::kLineitem ? "lineitem" : "orders";
  }
};

/// Logical column index of a lineitem column name (the redundant LINENUM
/// encodings all map to LINENUM); -1 if unknown.
int LineitemColumn(const std::string& name);

class Reference {
 public:
  Reference(const cstore::tpch::LineitemData& lineitem,
            const cstore::tpch::JoinTablesData& join);

  /// Number of writes applied so far.
  uint32_t version() const { return version_; }

  /// Starts keeping `shape`'s digest for every version from now on. Call
  /// before the first Apply. Returns the tracking id.
  int Track(const ReadShape& shape);
  const BagDigest& Tracked(int id, uint32_t version) const {
    return history_[id][version];
  }

  /// Applies `op` as write number version() + 1; returns rows affected.
  uint64_t Apply(const WriteOp& op);
  /// Counts a write the engine did not apply (it failed): a new version
  /// with the same state.
  void Skip();

  /// ORDER BY ... LIMIT result after `version` writes, in output order
  /// (ties broken by ascending position, as the engine does).
  std::vector<std::vector<Value>> TopN(const ReadShape& shape,
                                       uint32_t version) const;

  uint64_t LiveRows() const;

 private:
  struct LRow {
    Value v[4];
    uint64_t pos;
    uint32_t ins;
    uint32_t del;
  };
  struct ORow {
    Value v[2];
    uint32_t ins;
    uint32_t del;
  };
  struct GroupState {
    int64_t count = 0;
    int64_t sum = 0;
  };
  struct TrackedShape {
    ReadShape shape;
    std::vector<int> out;   // lineitem column index per output column
    std::vector<int> cond;  // lineitem column index per condition
    BagDigest digest;
    std::unordered_map<Value, GroupState> groups;  // kAgg
  };

  bool Visible(uint32_t ins, uint32_t del, uint32_t version) const {
    return ins <= version && version < del;
  }
  bool MatchesLineitem(const std::vector<Cond>& conds,
                       const std::vector<int>& idx, const Value* v) const;
  void FeedLineitem(TrackedShape* t, const LRow& row, int sign);
  void FeedOrders(TrackedShape* t, const ORow& row, int sign);
  void OnLineitem(const LRow& row, int sign);
  void OnOrders(const ORow& row, int sign);
  void AddToAgg(TrackedShape* t, Value g, Value x, int sign);
  /// Row indices worth scanning for `conds` (all rows, or one ship date).
  const std::vector<uint32_t>* Candidates(const std::vector<Cond>& conds) const;

  std::vector<LRow> lineitem_;
  std::vector<ORow> orders_;
  std::vector<Value> nation_;  // customer nationcode by custkey - 1
  uint64_t next_pos_ = 0;
  uint32_t version_ = 0;
  std::unordered_map<Value, std::vector<uint32_t>> by_shipdate_;
  std::vector<TrackedShape> tracked_;
  std::vector<std::vector<BagDigest>> history_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
