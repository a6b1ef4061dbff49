// Table definitions: schema plus the statistics the cost model consumes.

#ifndef DSM_CATALOG_TABLE_DEF_H_
#define DSM_CATALOG_TABLE_DEF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/table_set.h"

namespace dsm {

enum class DataType {
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeToString(DataType type);

// A column of a base table. Natural joins match columns by name, so two
// tables sharing a column name (e.g. "uid") are joinable on it.
struct ColumnDef {
  std::string name;
  DataType type = DataType::kInt64;

  // Statistics used for cardinality/selectivity estimation.
  // Number of distinct values; <= table cardinality.
  double distinct_values = 1.0;
  // Value range for numeric columns (used by range-predicate selectivity).
  double min_value = 0.0;
  double max_value = 1.0;
};

// Statistics that drive the analytical cost model. The paper (like its
// substrate system [9]) never executes sharings during planning: all
// planning decisions are functions of these numbers.
struct TableStats {
  // Current number of tuples.
  double cardinality = 0.0;
  // New/changed tuples arriving per time unit; this is what makes the data
  // *dynamic* and what view maintenance must keep up with.
  double update_rate = 0.0;
  // Average tuple width in bytes (drives network + storage cost).
  double tuple_bytes = 64.0;
};

struct TableDef {
  TableId id = 0;
  std::string name;
  std::vector<ColumnDef> columns;
  TableStats stats;

  // Index of the column named `name`, or -1.
  int FindColumn(const std::string& column_name) const;
};

}  // namespace dsm

#endif  // DSM_CATALOG_TABLE_DEF_H_
