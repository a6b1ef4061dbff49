// Test helper: a two-table star world built so that view reuse dominates
// recomputation. A heavily-updated fact table (m0) is keyed against a
// small, nearly-static dimension (m1); the key-key join output is tiny
// (~|dim| tuples), so the materialized join's delta stream is ~1000x
// cheaper to copy across the network than the fact table's raw update
// stream is to re-probe. m2 holds no base table: it can only ever carry
// materialized views.

#ifndef DSM_TESTS_TESTING_FACT_DIM_H_
#define DSM_TESTS_TESTING_FACT_DIM_H_

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "workload/scenario.h"

namespace dsm {
namespace testing_support {

inline ColumnDef FactDimCol(const std::string& name, DataType type,
                            double distinct, double max_value) {
  ColumnDef col;
  col.name = name;
  col.type = type;
  col.distinct_values = distinct;
  col.min_value = 0.0;
  col.max_value = max_value;
  return col;
}

// Tables fact (id 0, on m0) and dim (id 1, on m1); m0 and m1 take
// `capacity` each, m2 is unbounded.
inline Scenario FactDimWorld(
    double capacity = std::numeric_limits<double>::infinity()) {
  Scenario world;
  TableDef fact;
  fact.name = "fact";
  fact.columns = {FactDimCol("k", DataType::kInt64, 1e6, 1e6),
                  FactDimCol("v", DataType::kDouble, 1e4, 1e4)};
  fact.stats = {/*cardinality=*/1e6, /*update_rate=*/1e5,
                /*tuple_bytes=*/64.0};
  TableDef dim;
  dim.name = "dim";
  dim.columns = {FactDimCol("k", DataType::kInt64, 1e3, 1e6),
                 FactDimCol("label", DataType::kString, 1e3, 1.0)};
  dim.stats = {/*cardinality=*/1e3, /*update_rate=*/1.0,
               /*tuple_bytes=*/64.0};
  EXPECT_TRUE(world.catalog->AddTable(fact).ok());
  EXPECT_TRUE(world.catalog->AddTable(dim).ok());
  world.cluster->AddServer("m0", capacity);
  world.cluster->AddServer("m1", capacity);
  world.cluster->AddServer("m2");
  EXPECT_TRUE(world.cluster->PlaceTable(0, 0).ok());
  EXPECT_TRUE(world.cluster->PlaceTable(1, 1).ok());
  world.FillDefaults();
  return world;
}

}  // namespace testing_support
}  // namespace dsm

#endif  // DSM_TESTS_TESTING_FACT_DIM_H_
