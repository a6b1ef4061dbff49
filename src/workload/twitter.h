// The Twitter workload of Section 6.1.2: nine base relations derived from
// a gardenhose tweet stream, and the 25 base sharings of Table 1 (each
// motivated by a real mobile application).
//
// Substitution note (see DESIGN.md): the original 6-month 10%-sample
// Twitter dataset is not available. Only table *statistics* reach the
// planners (via the cost model), so the schema below carries synthetic
// cardinalities/update rates of plausible Twitter-like proportions, and a
// tuple generator feeds the maintenance-engine examples.

#ifndef DSM_WORKLOAD_TWITTER_H_
#define DSM_WORKLOAD_TWITTER_H_

#include <vector>

#include "catalog/catalog.h"
#include "cluster/cluster.h"
#include "common/status.h"
#include "sharing/sharing.h"

namespace dsm {

struct TwitterTables {
  TableId users = 0;
  TableId tweets = 0;
  TableId curloc = 0;
  TableId loc = 0;
  TableId socnet = 0;
  TableId urls = 0;
  TableId foursq = 0;
  TableId hashtags = 0;
  TableId photos = 0;
};

// Registers the nine relations (USERS, TWEETS, CURLOC, LOC, SOCNET, URLS,
// FOURSQ, HASHTAGS, PHOTOS) with statistics.
Result<TwitterTables> BuildTwitterCatalog(Catalog* catalog);

// The 25 base sharings S1..S25 of Table 1, in order, with no predicates.
// Destinations cycle round-robin over the cluster's servers.
std::vector<Sharing> TwitterBaseSharings(const TwitterTables& tables,
                                         const Cluster& cluster);

struct TwitterSequenceOptions {
  size_t num_sharings = 30;
  // Maximum predicates per sharing (0..3 in the paper's experiments).
  int max_predicates = 0;
  // When max_predicates >= 1: this fraction of sharings get between 1 and
  // max_predicates random predicates (uniformly many); the rest get none —
  // the paper's half-and-half setup.
  double frac_with_predicates = 0.5;
  uint64_t seed = 7;
};

// A sharing sequence drawn (with repetition) from the 25 base sharings,
// with random predicates attached per the options.
std::vector<Sharing> GenerateTwitterSequence(
    const Catalog& catalog, const TwitterTables& tables,
    const Cluster& cluster, const TwitterSequenceOptions& options);

}  // namespace dsm

#endif  // DSM_WORKLOAD_TWITTER_H_
