// Live maintenance: the part the paper's evaluation models analytically,
// run for real. Two purchased views over the Twitter schema are kept
// up to date by the delta engine while tweets/check-ins stream in, and the
// incremental contents are verified against from-scratch recomputation.

#include <cstdio>

#include "common/rng.h"
#include "maintain/delta_engine.h"
#include "market/simulation.h"
#include "workload/twitter.h"

int main() {
  dsm::Catalog catalog;
  const auto tables = dsm::BuildTwitterCatalog(&catalog);
  if (!tables.ok()) return 1;

  dsm::DeltaEngine engine(&catalog);
  for (const dsm::TableId t :
       {tables->users, tables->tweets, tables->foursq}) {
    if (!engine.RegisterBase(t).ok()) return 1;
  }

  // Sharing S5 (USERS ⋈ TWEETS, "tweetstats") and sharing S9
  // (FOURSQ ⋈ TWEETS, "checkoutcheckins") from Table 1.
  dsm::TableSet s5;
  s5.Add(tables->users);
  s5.Add(tables->tweets);
  dsm::TableSet s9;
  s9.Add(tables->foursq);
  s9.Add(tables->tweets);

  // S9 carries a predicate: only short tweets (len < 70).
  dsm::Predicate short_tweets;
  short_tweets.table = tables->tweets;
  short_tweets.column = 2;  // len
  short_tweets.op = dsm::CompareOp::kLt;
  short_tweets.value = 70;

  const auto v5 = engine.RegisterView(dsm::ViewKey(s5));
  const auto v9 = engine.RegisterView(dsm::ViewKey(s9, {short_tweets}));
  if (!v5.ok() || !v9.ok()) return 1;

  dsm::Rng rng(20140622);
  std::printf("%8s %14s %16s %16s\n", "batch", "work (pairs)",
              "|USERS⋈TWEETS|", "|FOURSQ⋈TWEETS σ|");
  for (int batch = 1; batch <= 10; ++batch) {
    // Each batch: 200 new users, 400 tweets, 100 check-ins; a handful of
    // tweet deletions.
    std::vector<dsm::Tuple> users, tweets, foursq;
    for (int i = 0; i < 200; ++i) {
      users.push_back(
          dsm::RandomTupleForTable(catalog, tables->users, &rng));
    }
    for (int i = 0; i < 400; ++i) {
      tweets.push_back(
          dsm::RandomTupleForTable(catalog, tables->tweets, &rng));
    }
    for (int i = 0; i < 100; ++i) {
      foursq.push_back(
          dsm::RandomTupleForTable(catalog, tables->foursq, &rng));
    }
    std::vector<dsm::Tuple> deleted(tweets.begin(), tweets.begin() + 5);

    if (!engine.ApplyUpdate(tables->users, users, {}).ok() ||
        !engine.ApplyUpdate(tables->tweets, tweets, {}).ok() ||
        !engine.ApplyUpdate(tables->foursq, foursq, {}).ok() ||
        !engine.ApplyUpdate(tables->tweets, {}, deleted).ok()) {
      std::fprintf(stderr, "update failed\n");
      return 1;
    }
    std::printf("%8d %14llu %16lld %16lld\n", batch,
                static_cast<unsigned long long>(engine.work()),
                static_cast<long long>(engine.view(*v5)->TotalSize()),
                static_cast<long long>(engine.view(*v9)->TotalSize()));
  }

  // Verify the incremental views against full recomputation.
  for (const dsm::ViewId v : {*v5, *v9}) {
    const auto expected = engine.Recompute(engine.view_key(v));
    if (!expected.ok() || !engine.view(v)->BagEquals(*expected)) {
      std::fprintf(stderr, "view %zu diverged from recomputation!\n", v);
      return 1;
    }
  }
  std::printf("\nboth views verified against from-scratch recomputation ✓\n");
  return 0;
}
