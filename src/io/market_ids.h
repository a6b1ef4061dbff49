// Private to src/io: the id check shared by the market-state reader and
// crash recovery (plan_journal.cc).

#ifndef DSM_IO_MARKET_IDS_H_
#define DSM_IO_MARKET_IDS_H_

#include "io/market_io.h"

namespace dsm::io_internal {

// kInvalidArgument unless every server and table id in `state`'s sharings
// is in its cluster and catalog; a state with sharings and no table
// records is refused too.
Status CheckMarketIds(const MarketState& state);

}  // namespace dsm::io_internal

#endif  // DSM_IO_MARKET_IDS_H_
