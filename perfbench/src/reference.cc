#include "reference.h"

#include <algorithm>
#include <climits>

namespace perfbench {

namespace {

constexpr uint32_t kLive = UINT32_MAX;

const char* OpText(Cond::Op op) {
  switch (op) {
    case Cond::Op::kLt: return " < ";
    case Cond::Op::kLe: return " <= ";
    case Cond::Op::kEq: return " = ";
    case Cond::Op::kGe: return " >= ";
    case Cond::Op::kGt: return " > ";
    case Cond::Op::kBetween: return " BETWEEN ";
  }
  return " ? ";
}

std::string WhereClause(const std::vector<Cond>& conds) {
  std::string out;
  for (size_t i = 0; i < conds.size(); ++i) {
    out += i == 0 ? " WHERE " : " AND ";
    out += conds[i].Sql();
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ", ";
    out += parts[i];
  }
  return out;
}

std::vector<int> Indices(const std::vector<std::string>& cols) {
  std::vector<int> idx;
  for (const std::string& c : cols) idx.push_back(LineitemColumn(c));
  return idx;
}

std::vector<int> CondIndices(const std::vector<Cond>& conds) {
  std::vector<int> idx;
  for (const Cond& c : conds) idx.push_back(LineitemColumn(c.col));
  return idx;
}

}  // namespace

bool Cond::Eval(Value v) const {
  switch (op) {
    case Op::kLt: return v < a;
    case Op::kLe: return v <= a;
    case Op::kEq: return v == a;
    case Op::kGe: return v >= a;
    case Op::kGt: return v > a;
    case Op::kBetween: return v >= a && v <= b;
  }
  return false;
}

std::string Cond::Sql() const {
  std::string out = col + OpText(op) + std::to_string(a);
  if (op == Op::kBetween) out += " AND " + std::to_string(b);
  return out;
}

std::string ReadShape::Sql() const {
  switch (kind) {
    case Kind::kSelect:
      return "SELECT " + Join(cols) + " FROM lineitem" + WhereClause(conds);
    case Kind::kAgg:
      return "SELECT " + cols[0] + ", " + (count ? "COUNT(" : "SUM(") +
             cols[1] + ") FROM lineitem" + WhereClause(conds) + " GROUP BY " +
             cols[0];
    case Kind::kSort:
      return "SELECT " + Join(cols) + " FROM lineitem" + WhereClause(conds) +
             " ORDER BY " + order_col + (desc ? " DESC" : " ASC") +
             " LIMIT " + std::to_string(limit);
    case Kind::kJoin:
      return "";
  }
  return "";
}

std::string WriteOp::Sql() const {
  const std::string t = TableName();
  switch (kind) {
    case Kind::kInsert: {
      std::string out = "INSERT INTO " + t + " VALUES ";
      const auto stored = StoredRows();
      for (size_t r = 0; r < stored.size(); ++r) {
        out += r == 0 ? "(" : ", (";
        for (size_t c = 0; c < stored[r].size(); ++c) {
          if (c > 0) out += ", ";
          out += std::to_string(stored[r][c]);
        }
        out += ")";
      }
      return out;
    }
    case Kind::kDelete:
      return "DELETE FROM " + t + WhereClause(conds);
    case Kind::kUpdate: {
      std::string out = "UPDATE " + t + " SET ";
      for (size_t i = 0; i < sets.size(); ++i) {
        if (i > 0) out += ", ";
        out += sets[i].first + " = " + std::to_string(sets[i].second);
      }
      return out + WhereClause(conds);
    }
  }
  return "";
}

std::vector<std::vector<Value>> WriteOp::StoredRows() const {
  if (table == Table::kOrders) return rows;
  std::vector<std::vector<Value>> out;
  out.reserve(rows.size());
  for (const auto& r : rows) {
    // returnflag, shipdate, linenum (rle, plain, bv, dict), quantity
    out.push_back({r[0], r[1], r[2], r[2], r[2], r[2], r[3]});
  }
  return out;
}

int LineitemColumn(const std::string& name) {
  if (name == "returnflag") return 0;
  if (name == "shipdate") return 1;
  if (name == "linenum" || name == "linenum_plain" || name == "linenum_bv" ||
      name == "linenum_dict") {
    return 2;
  }
  if (name == "quantity") return 3;
  return -1;
}

Reference::Reference(const cstore::tpch::LineitemData& li,
                     const cstore::tpch::JoinTablesData& join) {
  lineitem_.reserve(li.num_rows());
  for (size_t i = 0; i < li.num_rows(); ++i) {
    LRow r{{li.returnflag[i], li.shipdate[i], li.linenum[i], li.quantity[i]},
           next_pos_++, 0, kLive};
    by_shipdate_[r.v[1]].push_back(static_cast<uint32_t>(lineitem_.size()));
    lineitem_.push_back(r);
  }
  orders_.reserve(join.orders_custkey.size());
  for (size_t i = 0; i < join.orders_custkey.size(); ++i) {
    orders_.push_back({{join.orders_custkey[i], join.orders_shipdate[i]}, 0,
                       kLive});
  }
  // customer.custkey is dense 1..N (generator contract); index by key - 1.
  nation_.assign(join.customer_custkey.size(), 0);
  for (size_t i = 0; i < join.customer_custkey.size(); ++i) {
    nation_[static_cast<size_t>(join.customer_custkey[i] - 1)] =
        join.customer_nationcode[i];
  }
}

bool Reference::MatchesLineitem(const std::vector<Cond>& conds,
                                const std::vector<int>& idx,
                                const Value* v) const {
  for (size_t i = 0; i < conds.size(); ++i) {
    if (!conds[i].Eval(v[idx[i]])) return false;
  }
  return true;
}

void Reference::AddToAgg(TrackedShape* t, Value g, Value x, int sign) {
  GroupState& s = t->groups[g];
  const bool count = t->shape.count;
  if (s.count > 0) {
    const Value before[2] = {g, count ? s.count : s.sum};
    t->digest.Add(before, 2, -1);
  }
  s.count += sign;
  s.sum += sign * x;
  if (s.count > 0) {
    const Value after[2] = {g, count ? s.count : s.sum};
    t->digest.Add(after, 2, +1);
  } else {
    t->groups.erase(g);
  }
}

void Reference::FeedLineitem(TrackedShape* t, const LRow& row, int sign) {
  if (t->shape.kind == ReadShape::Kind::kJoin ||
      !MatchesLineitem(t->shape.conds, t->cond, row.v)) {
    return;
  }
  if (t->shape.kind == ReadShape::Kind::kAgg) {
    AddToAgg(t, row.v[t->out[0]], row.v[t->out[1]], sign);
  } else {
    Value out[4];
    for (size_t c = 0; c < t->out.size(); ++c) out[c] = row.v[t->out[c]];
    t->digest.Add(out, t->out.size(), sign);
  }
}

void Reference::FeedOrders(TrackedShape* t, const ORow& row, int sign) {
  if (t->shape.kind != ReadShape::Kind::kJoin) return;
  for (const Cond& c : t->shape.conds) {
    if (!c.Eval(row.v[0])) return;
  }
  const Value out[2] = {row.v[1], nation_[static_cast<size_t>(row.v[0] - 1)]};
  t->digest.Add(out, 2, sign);
}

void Reference::OnLineitem(const LRow& row, int sign) {
  for (TrackedShape& t : tracked_) FeedLineitem(&t, row, sign);
}

void Reference::OnOrders(const ORow& row, int sign) {
  for (TrackedShape& t : tracked_) FeedOrders(&t, row, sign);
}

int Reference::Track(const ReadShape& shape) {
  TrackedShape t;
  t.shape = shape;
  if (shape.kind != ReadShape::Kind::kJoin) {
    t.out = Indices(shape.cols);
    t.cond = CondIndices(shape.conds);
  }
  for (const LRow& r : lineitem_) {
    if (Visible(r.ins, r.del, version_)) FeedLineitem(&t, r, +1);
  }
  for (const ORow& r : orders_) {
    if (Visible(r.ins, r.del, version_)) FeedOrders(&t, r, +1);
  }
  history_.push_back({t.digest});
  tracked_.push_back(std::move(t));
  return static_cast<int>(tracked_.size() - 1);
}

uint64_t Reference::Apply(const WriteOp& op) {
  const uint32_t v = ++version_;
  uint64_t affected = 0;
  if (op.table == Table::kLineitem) {
    const std::vector<int> idx = CondIndices(op.conds);
    auto append = [&](const Value* vals) {
      LRow r{{vals[0], vals[1], vals[2], vals[3]}, next_pos_++, v, kLive};
      by_shipdate_[r.v[1]].push_back(static_cast<uint32_t>(lineitem_.size()));
      lineitem_.push_back(r);
      OnLineitem(r, +1);
    };
    if (op.kind == WriteOp::Kind::kInsert) {
      for (const auto& row : op.rows) append(row.data());
      affected = op.rows.size();
    } else {
      std::vector<uint32_t> hits;
      const std::vector<uint32_t>* cand = Candidates(op.conds);
      const size_t n = cand ? cand->size() : lineitem_.size();
      for (size_t k = 0; k < n; ++k) {
        const uint32_t i = cand ? (*cand)[k] : static_cast<uint32_t>(k);
        const LRow& r = lineitem_[i];
        if (r.del == kLive && MatchesLineitem(op.conds, idx, r.v)) {
          hits.push_back(i);
        }
      }
      // Updated rows re-enter at the tail in position order.
      std::sort(hits.begin(), hits.end(), [&](uint32_t x, uint32_t y) {
        return lineitem_[x].pos < lineitem_[y].pos;
      });
      for (uint32_t i : hits) {
        lineitem_[i].del = v;
        OnLineitem(lineitem_[i], -1);
      }
      if (op.kind == WriteOp::Kind::kUpdate) {
        for (uint32_t i : hits) {
          Value vals[4] = {lineitem_[i].v[0], lineitem_[i].v[1],
                           lineitem_[i].v[2], lineitem_[i].v[3]};
          for (const auto& [col, val] : op.sets) vals[LineitemColumn(col)] = val;
          append(vals);
        }
      }
      affected = hits.size();
    }
  } else {
    auto col = [](const std::string& name) { return name == "custkey" ? 0 : 1; };
    auto matches = [&](const ORow& r) {
      for (const Cond& c : op.conds) {
        if (!c.Eval(r.v[col(c.col)])) return false;
      }
      return true;
    };
    if (op.kind == WriteOp::Kind::kInsert) {
      for (const auto& row : op.rows) {
        orders_.push_back({{row[0], row[1]}, v, kLive});
        OnOrders(orders_.back(), +1);
      }
      affected = op.rows.size();
    } else {
      const size_t n = orders_.size();
      for (size_t i = 0; i < n; ++i) {
        if (orders_[i].del != kLive || !matches(orders_[i])) continue;
        orders_[i].del = v;
        OnOrders(orders_[i], -1);
        ++affected;
        if (op.kind == WriteOp::Kind::kUpdate) {
          ORow r = orders_[i];
          for (const auto& [c, val] : op.sets) r.v[col(c)] = val;
          r.ins = v;
          r.del = kLive;
          orders_.push_back(r);
          OnOrders(r, +1);
        }
      }
    }
  }
  for (size_t s = 0; s < tracked_.size(); ++s) {
    history_[s].push_back(tracked_[s].digest);
  }
  return affected;
}

void Reference::Skip() {
  ++version_;
  for (size_t s = 0; s < tracked_.size(); ++s) {
    history_[s].push_back(tracked_[s].digest);
  }
}

const std::vector<uint32_t>* Reference::Candidates(
    const std::vector<Cond>& conds) const {
  for (const Cond& c : conds) {
    if (c.col == "shipdate" && c.op == Cond::Op::kEq) {
      static const std::vector<uint32_t> kNone;
      auto it = by_shipdate_.find(c.a);
      return it == by_shipdate_.end() ? &kNone : &it->second;
    }
  }
  return nullptr;
}

std::vector<std::vector<Value>> Reference::TopN(const ReadShape& shape,
                                                uint32_t version) const {
  const std::vector<int> out = Indices(shape.cols);
  const std::vector<int> idx = CondIndices(shape.conds);
  const int key = LineitemColumn(shape.order_col);
  std::vector<const LRow*> rows;
  for (const LRow& r : lineitem_) {
    if (Visible(r.ins, r.del, version) &&
        MatchesLineitem(shape.conds, idx, r.v)) {
      rows.push_back(&r);
    }
  }
  auto less = [&](const LRow* a, const LRow* b) {
    if (a->v[key] != b->v[key]) {
      return shape.desc ? a->v[key] > b->v[key] : a->v[key] < b->v[key];
    }
    return a->pos < b->pos;
  };
  const size_t n = std::min<size_t>(rows.size(), shape.limit);
  std::partial_sort(rows.begin(), rows.begin() + n, rows.end(), less);
  std::vector<std::vector<Value>> result;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> row;
    for (int c : out) row.push_back(rows[i]->v[c]);
    result.push_back(std::move(row));
  }
  return result;
}

uint64_t Reference::LiveRows() const {
  uint64_t live = nation_.size();
  for (const LRow& r : lineitem_) live += r.del == kLive;
  for (const ORow& r : orders_) live += r.del == kLive;
  return live;
}

}  // namespace perfbench
