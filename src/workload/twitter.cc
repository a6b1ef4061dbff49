#include "workload/twitter.h"

#include <algorithm>

#include "common/rng.h"
#include "workload/predicate_gen.h"

namespace dsm {
namespace {

ColumnDef Col(const char* name, double distinct, double min_value,
              double max_value) {
  ColumnDef col;
  col.name = name;
  col.type = DataType::kInt64;
  col.distinct_values = distinct;
  col.min_value = min_value;
  col.max_value = max_value;
  return col;
}

TableDef Table(const char* name, double cardinality, double update_rate,
               double tuple_bytes, std::vector<ColumnDef> columns) {
  TableDef def;
  def.name = name;
  def.columns = std::move(columns);
  def.stats.cardinality = cardinality;
  def.stats.update_rate = update_rate;
  def.stats.tuple_bytes = tuple_bytes;
  return def;
}

}  // namespace

Result<TwitterTables> BuildTwitterCatalog(Catalog* catalog) {
  TwitterTables t;
  const double kUsers = 1e6;
  const double kTweets = 1e7;

  // Shared column names define the natural-join graph: "uid" links the
  // user-centric tables, "tid" links the tweet-centric ones. URLS,
  // HASHTAGS and PHOTOS carry the author's uid as well, which is what lets
  // Table 1's location sharings (S7, S23, S24) join them with CURLOC.
  DSM_ASSIGN_OR_RETURN(
      t.users, catalog->AddTable(Table(
                   "USERS", kUsers, 20.0, 96,
                   {Col("uid", kUsers, 0, kUsers), Col("name_id", kUsers, 0, kUsers),
                    Col("lang", 40, 0, 40), Col("followers", 1e5, 0, 1e7)})));
  DSM_ASSIGN_OR_RETURN(
      t.tweets, catalog->AddTable(Table(
                    "TWEETS", kTweets, 1000.0, 200,
                    {Col("tid", kTweets, 0, kTweets), Col("uid", kUsers, 0, kUsers),
                     Col("len", 140, 0, 140), Col("ts", 1e6, 0, 1e6)})));
  DSM_ASSIGN_OR_RETURN(
      t.curloc, catalog->AddTable(Table(
                    "CURLOC", kUsers, 300.0, 48,
                    {Col("uid", kUsers, 0, kUsers), Col("lat", 1.8e4, -90, 90),
                     Col("lon", 3.6e4, -180, 180), Col("city", 5e3, 0, 5e3)})));
  DSM_ASSIGN_OR_RETURN(
      t.loc, catalog->AddTable(Table(
                 "LOC", 8e5, 10.0, 64,
                 {Col("lid", 8e5, 0, 8e5), Col("uid", 8e5, 0, kUsers),
                  Col("city", 5e3, 0, 5e3), Col("country", 200, 0, 200)})));
  DSM_ASSIGN_OR_RETURN(
      t.socnet, catalog->AddTable(Table(
                    "SOCNET", 5e6, 100.0, 24,
                    {Col("uid", kUsers, 0, kUsers), Col("fid", kUsers, 0, kUsers)})));
  DSM_ASSIGN_OR_RETURN(
      t.urls, catalog->AddTable(Table(
                  "URLS", 3e6, 250.0, 120,
                  {Col("tid", 3e6, 0, kTweets), Col("uid", 9e5, 0, kUsers),
                   Col("url_host", 1e5, 0, 1e5)})));
  DSM_ASSIGN_OR_RETURN(
      t.foursq, catalog->AddTable(Table(
                    "FOURSQ", 2e6, 150.0, 80,
                    {Col("fsid", 2e6, 0, 2e6), Col("uid", 7e5, 0, kUsers),
                     Col("venue", 5e4, 0, 5e4), Col("ts", 1e6, 0, 1e6)})));
  DSM_ASSIGN_OR_RETURN(
      t.hashtags, catalog->AddTable(Table(
                      "HASHTAGS", 4e6, 400.0, 40,
                      {Col("tid", 3.5e6, 0, kTweets), Col("uid", 8e5, 0, kUsers),
                       Col("tag", 2e5, 0, 2e5)})));
  DSM_ASSIGN_OR_RETURN(
      t.photos, catalog->AddTable(Table(
                    "PHOTOS", 1.5e6, 120.0, 150,
                    {Col("tid", 1.5e6, 0, kTweets), Col("uid", 6e5, 0, kUsers),
                     Col("photo_id", 1.5e6, 0, 1.5e6)})));
  return t;
}

std::vector<Sharing> TwitterBaseSharings(const TwitterTables& t,
                                         const Cluster& cluster) {
  // Table 1, S1..S25.
  const std::vector<std::vector<TableId>> base = {
      {t.users, t.socnet},                                    // S1 twitaholic
      {t.users, t.tweets, t.curloc},                          // S2 twellow
      {t.users, t.tweets, t.urls},                            // S3 tweetmeme
      {t.users, t.tweets, t.urls, t.curloc},                  // S4 twitdom
      {t.users, t.tweets},                                    // S5 tweetstats
      {t.tweets, t.curloc},                                   // S6 nearbytweets
      {t.urls, t.curloc},                                     // S7 nearbyurls
      {t.tweets, t.photos},                                   // S8 twitpic
      {t.foursq, t.tweets},                                   // S9 checkoutcheckins
      {t.hashtags, t.tweets},                                 // S10 monitter
      {t.foursq, t.users, t.tweets, t.curloc},                // S11 arrivaltracker
      {t.foursq, t.users, t.tweets},                          // S12 route
      {t.foursq, t.users, t.tweets, t.loc},                   // S13 locc.us
      {t.tweets, t.loc},                                      // S14 locafollow
      {t.users, t.loc, t.tweets, t.curloc},                   // S15 twittervision
      {t.foursq, t.users, t.tweets, t.socnet},                // S16 yelp
      {t.users, t.loc},                                       // S17 twittermap
      {t.users, t.tweets, t.photos, t.curloc},                // S18 twittermap
      {t.users, t.tweets, t.hashtags, t.curloc},              // S19 hashtags.org
      {t.users, t.tweets, t.hashtags, t.photos, t.curloc},    // S20 nearbytweets
      {t.users, t.tweets, t.foursq, t.photos, t.curloc},      // S21 nearbytweets
      {t.foursq, t.curloc},                                   // S22 nearbytweets
      {t.photos, t.curloc},                                   // S23 twitxr
      {t.hashtags, t.curloc},                                 // S24 nearbytweets
      {t.hashtags, t.users, t.tweets},                        // S25 twistori
  };

  std::vector<Sharing> sharings;
  sharings.reserve(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    TableSet tables;
    for (const TableId id : base[i]) tables.Add(id);
    const ServerId dest = static_cast<ServerId>(
        i % std::max<size_t>(1, cluster.num_servers()));
    sharings.emplace_back(tables, std::vector<Predicate>{}, dest,
                          "S" + std::to_string(i + 1));
  }
  return sharings;
}

std::vector<Sharing> GenerateTwitterSequence(
    const Catalog& catalog, const TwitterTables& tables,
    const Cluster& cluster, const TwitterSequenceOptions& options) {
  Rng rng(options.seed);
  const std::vector<Sharing> base = TwitterBaseSharings(tables, cluster);
  std::vector<Sharing> sequence;
  sequence.reserve(options.num_sharings);
  for (size_t i = 0; i < options.num_sharings; ++i) {
    const Sharing& proto = base[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(base.size()) - 1))];
    std::vector<Predicate> preds;
    if (options.max_predicates > 0 &&
        rng.Bernoulli(options.frac_with_predicates)) {
      const int count =
          static_cast<int>(rng.UniformInt(1, options.max_predicates));
      preds = RandomPredicates(catalog, proto.tables(), count, &rng);
    }
    const ServerId dest = static_cast<ServerId>(rng.UniformInt(
        0, static_cast<int64_t>(cluster.num_servers()) - 1));
    sequence.emplace_back(proto.tables(), std::move(preds), dest,
                          "buyer" + std::to_string(i));
  }
  return sequence;
}

}  // namespace dsm
