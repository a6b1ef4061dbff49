#include "expr/selectivity.h"

#include <algorithm>
#include <bit>

namespace dsm {

double StatsEstimator::PredicateSelectivity(const Predicate& pred) const {
  const TableDef& t = catalog_->table(pred.table);
  if (pred.column >= t.columns.size()) return 1.0;
  const ColumnDef& col = t.columns[pred.column];
  double sel = 1.0;
  switch (pred.op) {
    case CompareOp::kEq:
      sel = 1.0 / std::max(1.0, col.distinct_values);
      break;
    case CompareOp::kLt:
    case CompareOp::kGt: {
      const double range = col.max_value - col.min_value;
      if (range <= 0.0) {
        sel = 0.5;  // no range information: the textbook 1/2 default
      } else {
        double frac = (pred.value - col.min_value) / range;
        frac = std::clamp(frac, 0.0, 1.0);
        sel = pred.op == CompareOp::kLt ? frac : 1.0 - frac;
      }
      break;
    }
  }
  // Keep selectivities strictly positive so costs and perc stay nonzero.
  return std::clamp(sel, 1e-6, 1.0);
}

double StatsEstimator::CombinedSelectivity(
    const std::vector<Predicate>& preds) const {
  double sel = 1.0;
  for (const Predicate& p : preds) sel *= PredicateSelectivity(p);
  return sel;
}

double StatsEstimator::JoinCardinality(TableSet tables) {
  const auto it = join_card_cache_.find(tables);
  if (it != join_card_cache_.end()) return it->second;

  const std::vector<TableId> members = tables.ToVector();
  double card = 0.0;
  if (!members.empty()) {
    // Fold tables in id order; each newly joined table contributes its
    // cardinality times the selectivity of its join columns against the
    // already-joined prefix (containment-of-value-sets assumption:
    // sel = 1 / max(V(a, col), V(b, col)) per shared column).
    card = catalog_->table(members[0]).stats.cardinality;
    TableSet joined = TableSet::Of(members[0]);
    for (size_t i = 1; i < members.size(); ++i) {
      const TableDef& t = catalog_->table(members[i]);
      card *= std::max(1.0, t.stats.cardinality);
      for (TableId prev : joined.ToVector()) {
        const TableDef& pt = catalog_->table(prev);
        for (const ColumnDef& c : t.columns) {
          const int pc = pt.FindColumn(c.name);
          if (pc < 0) continue;
          const double v = std::max(
              {1.0, c.distinct_values, pt.columns[pc].distinct_values});
          card /= v;
        }
      }
      joined.Add(members[i]);
    }
    card = std::max(card, 1.0);
  }
  join_card_cache_.emplace(tables, card);
  return card;
}

double StatsEstimator::Cardinality(const ViewKey& key) {
  return std::max(1.0, JoinCardinality(key.tables) *
                           CombinedSelectivity(key.predicates));
}

double StatsEstimator::DeltaRate(const ViewKey& key) {
  const double view_card = Cardinality(key);
  double rate = 0.0;
  // Member ids in increasing order, without ToVector's allocation: every
  // plan fragment's pricing lands here several times.
  for (uint64_t m = key.tables.mask(); m != 0; m &= m - 1) {
    const auto t = static_cast<TableId>(std::countr_zero(m));
    const TableStats& s = catalog_->table(t).stats;
    const double base = std::max(1.0, s.cardinality);
    rate += s.update_rate * (view_card / base);
  }
  return rate;
}

double StatsEstimator::TupleBytes(TableSet tables) const {
  double bytes = 0.0;
  for (uint64_t m = tables.mask(); m != 0; m &= m - 1) {
    const auto t = static_cast<TableId>(std::countr_zero(m));
    bytes += catalog_->table(t).stats.tuple_bytes;
  }
  return bytes;
}

void StatsEstimator::InvalidateCache() {
  join_card_cache_.clear();
}

}  // namespace dsm
