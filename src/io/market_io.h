// Persistence for market state.
//
// A service provider must survive restarts without re-planning (and thus
// possibly re-pricing) every active sharing. This module serializes the
// market definition — servers, placed tables with statistics, and every
// integrated sharing together with the exact plan chosen for it — to a
// line-oriented text format, and restores it into a fresh GlobalPlan by
// replaying the stored plans in the original arrival order (integration
// is deterministic, so the restored DAG matches the saved one).
//
// The format is versioned for forward evolution. After the header line a
// file holds its servers, then each table, then each sharing. A record
// that opens a block declares how many records follow, and the reader
// reads exactly those, top-down:
//   table <name> <stats...> <n>    then n col records, then at most one
//                                  place record
//   sharing <id> <dest> <buyer> <tables> <n>   then n pred records, then
//   plan <n>                       then n node records, each followed by
//                                  the pred records its last field counts
// Input the writer never emits (records out of this order, a number with
// trailing characters) is rejected, not reinterpreted.

#ifndef DSM_IO_MARKET_IO_H_
#define DSM_IO_MARKET_IO_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "cluster/cluster.h"
#include "common/status.h"
#include "globalplan/global_plan.h"
#include "plan/plan.h"
#include "sharing/sharing.h"

namespace dsm {

// One integrated sharing with its chosen plan, in arrival order.
struct SharingStateEntry {
  SharingId id = 0;
  Sharing sharing;
  SharingPlan plan;
};

struct MarketState {
  Catalog catalog;
  Cluster cluster;
  std::vector<SharingStateEntry> sharings;
};

// --- Writing ---------------------------------------------------------------

// Serializes catalog + cluster (+ sharings with plans, when a GlobalPlan
// is given) to `out`.
Status WriteMarketState(const Catalog& catalog, const Cluster& cluster,
                        const GlobalPlan* global_plan, std::ostream* out);

Result<std::string> MarketStateToString(const Catalog& catalog,
                                        const Cluster& cluster,
                                        const GlobalPlan* global_plan);

// --- Sharing-record grammar (shared with the plan journal) -----------------

// Appends the "sharing"/"pred"/"plan"/"node" block for one integrated
// sharing to `out`, exactly as it appears inside a market-state file. The
// PlanJournal frames these blocks as its record payloads.
void WriteSharingRecord(SharingId id, const Sharing& sharing,
                        const SharingPlan& plan, std::ostream* out);

// Parses one complete block produced by WriteSharingRecord. When
// `num_servers` is nonzero every server id in the block must be below it;
// 0 skips the range check (for callers with no cluster at hand). Table ids
// are bounded by TableSet's 64 tables only.
Result<SharingStateEntry> ParseSharingRecord(const std::string& block,
                                             size_t num_servers = 0);

// --- Reading ---------------------------------------------------------------

// Parses a market-state file. Malformed input — negative counts,
// out-of-range server/table ids, non-finite statistics, truncated blocks —
// is rejected with kInvalidArgument; the parser never crashes or silently
// mis-reads. Once the file is read, every server and table id in every
// sharing is checked against the file's cluster and catalog; a file with
// sharings but no table records is rejected.
Result<MarketState> ReadMarketState(std::istream* in);
Result<MarketState> MarketStateFromString(const std::string& text);

// Replays `state.sharings` into `global_plan` (which must be empty and
// built over the same cluster/cost model semantics).
Status RestoreGlobalPlan(const MarketState& state, GlobalPlan* global_plan);

}  // namespace dsm

#endif  // DSM_IO_MARKET_IO_H_
