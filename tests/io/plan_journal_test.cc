// PlanJournal: append-only WAL of committed plan choices. Replay must
// tolerate any torn or corrupted tail — drop the bad suffix, report how
// much survived, never crash and never error.

#include "io/plan_journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/fault.h"
#include "market/rig.h"
#include "online/greedy.h"
#include "testing/plans.h"

namespace dsm {
namespace {

// Plans `n` Twitter base sharings and journals every committed choice.
// Choices are returned for later comparison.
std::vector<PlanChoice> PlanAndJournal(const TwitterScenario& world,
                                       const Rig& rig, PlanJournal* journal,
                                       size_t n) {
  GreedyPlanner planner(rig.ctx);
  std::vector<PlanChoice> choices;
  const auto base = TwitterBaseSharings(world.tables, *world.cluster);
  for (size_t i = 0; i < n && i < base.size(); ++i) {
    const auto choice = planner.ProcessSharing(base[i]);
    EXPECT_TRUE(choice.ok());
    EXPECT_TRUE(
        journal->Append(choice->id, base[i], choice->plan).ok());
    choices.push_back(*choice);
  }
  return choices;
}

TEST(PlanJournalTest, ChecksumMatchesFnv1a64Vectors) {
  EXPECT_EQ(JournalChecksum(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(JournalChecksum("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(JournalChecksum("plan a"), JournalChecksum("plan b"));
}

TEST(PlanJournalTest, AppendBeforeOpenRejected) {
  PlanJournal journal;
  const Sharing s;
  EXPECT_EQ(journal.Append(1, s, SharingPlan{}).code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanJournalTest, EmptyJournalReplaysToNothing) {
  PlanJournal journal;
  ASSERT_TRUE(journal.Open().ok());
  const auto replay = ReplayJournal(journal.contents());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_recovered, 0u);
  EXPECT_FALSE(replay->tail_dropped);
}

TEST(PlanJournalTest, MissingHeaderIsAnError) {
  EXPECT_FALSE(ReplayJournal("").ok());
  EXPECT_FALSE(ReplayJournal("not a journal\n").ok());
}

TEST(PlanJournalTest, RoundTripReplaysEveryRecord) {
  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  PlanJournal journal;
  ASSERT_TRUE(journal.Open().ok());
  const auto choices = PlanAndJournal(world, rig, &journal, 3);
  ASSERT_EQ(journal.records_appended(), 3u);

  const auto replay =
      ReplayJournal(journal.contents(), world.cluster->num_servers());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records_recovered, 3u);
  EXPECT_EQ(replay->bytes_dropped, 0u);
  EXPECT_FALSE(replay->tail_dropped);
  ASSERT_EQ(replay->entries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replay->entries[i].id, choices[i].id);
    EXPECT_EQ(replay->entries[i].plan, choices[i].plan);
  }
}

TEST(PlanJournalTest, TruncatedTailIsDroppedNotFatal) {
  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  PlanJournal journal;
  ASSERT_TRUE(journal.Open().ok());
  PlanAndJournal(world, rig, &journal, 3);

  // Chop bytes off the end: whatever prefix of whole frames survives must
  // replay cleanly; the ragged tail is dropped and accounted for.
  const std::string& full = journal.contents();
  for (size_t cut = 1; cut < 40; cut += 7) {
    const std::string torn = full.substr(0, full.size() - cut);
    const auto replay = ReplayJournal(torn);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay->records_recovered, 2u);
    EXPECT_TRUE(replay->tail_dropped);
    EXPECT_GT(replay->bytes_dropped, 0u);
  }
}

TEST(PlanJournalTest, CorruptPayloadByteDropsSuffix) {
  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  PlanJournal journal;
  ASSERT_TRUE(journal.Open().ok());
  PlanAndJournal(world, rig, &journal, 3);

  // Flip one byte in the last record: its checksum no longer matches.
  std::string damaged = journal.contents();
  damaged[damaged.size() - 2] ^= 0x20;
  auto replay = ReplayJournal(damaged);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_recovered, 2u);
  EXPECT_TRUE(replay->tail_dropped);

  // Damage in the middle invalidates everything after it: frame
  // boundaries downstream of a bad frame cannot be trusted.
  std::string early = journal.contents();
  early[early.find("rec ") + 4] = 'x';
  replay = ReplayJournal(early);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_recovered, 0u);
  EXPECT_TRUE(replay->tail_dropped);
}

// A frame declaring a length near 2^64 is a truncated payload, not a
// length that wraps around to the end of the text. The bogus frame holds
// a valid record's payload and a checksum of every byte after its head,
// so only the length check can reject it; the whole suffix from the
// bogus frame on is dropped, once.
TEST(PlanJournalTest, HugeDeclaredLengthDropsSuffix) {
  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  PlanJournal journal;
  ASSERT_TRUE(journal.Open().ok());
  PlanAndJournal(world, rig, &journal, 1);

  const std::string& valid = journal.contents();
  const size_t body = valid.find('\n') + 1;  // past the journal header
  const std::string payload = valid.substr(valid.find('\n', body) + 1);
  char head[64];
  std::snprintf(head, sizeof(head), "rec 18446744073709551615 %016llx\n",
                static_cast<unsigned long long>(JournalChecksum(payload)));
  const std::string text = valid.substr(0, body) + head + payload;

  const auto replay = ReplayJournal(text);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_recovered, 0u);
  EXPECT_TRUE(replay->tail_dropped);
  EXPECT_EQ(replay->bytes_dropped, text.size() - body);
}

TEST(PlanJournalTest, TornWriteFaultLeavesRecoverablePrefix) {
  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  PlanJournal journal;
  ASSERT_TRUE(journal.Open().ok());
  const auto base = TwitterBaseSharings(world.tables, *world.cluster);
  GreedyPlanner planner(rig.ctx);
  std::vector<PlanChoice> committed;
  for (int i = 0; i < 2; ++i) {
    const auto choice = planner.ProcessSharing(base[i]);
    ASSERT_TRUE(choice.ok());
    ASSERT_TRUE(journal.Append(choice->id, base[i], choice->plan).ok());
    committed.push_back(*choice);
  }

  // The process "dies" halfway through the third append.
  const auto choice = planner.ProcessSharing(base[2]);
  ASSERT_TRUE(choice.ok());
  {
    ScopedFault crash("io/journal-append");
    EXPECT_EQ(journal.Append(choice->id, base[2], choice->plan).code(),
              StatusCode::kInternal);
  }
  EXPECT_EQ(journal.records_appended(), 2u);

  const auto replay = ReplayJournal(journal.contents());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_recovered, 2u);
  EXPECT_TRUE(replay->tail_dropped);
  EXPECT_GT(replay->bytes_dropped, 0u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(replay->entries[i].id, committed[i].id);
  }
}

TEST(PlanJournalTest, FileBackedJournalSurvivesReopen) {
  const std::string path =
      ::testing::TempDir() + "/dsm_plan_journal_test.log";
  std::remove(path.c_str());

  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  {
    PlanJournal journal(path);
    ASSERT_TRUE(journal.Open().ok());
    PlanAndJournal(world, rig, &journal, 2);
  }
  // A new process opens the same file and keeps appending.
  PlanJournal reopened(path);
  ASSERT_TRUE(reopened.Open().ok());
  {
    const auto base = TwitterBaseSharings(world.tables, *world.cluster);
    const auto plans = testing_support::EnumerateAll(*rig.enumerator, base[5]);
    ASSERT_TRUE(plans.ok());
    ASSERT_TRUE(reopened.Append(100, base[5], plans->front()).ok());
  }
  const auto replay = ReplayJournal(reopened.contents());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_recovered, 3u);
  EXPECT_EQ(replay->entries.back().id, 100u);
  std::remove(path.c_str());
}

// A crash tears the second append; the next process reopens the file and
// appends again. The reopen must cut the torn frame, or replay would stop
// there and lose every later record.
TEST(PlanJournalTest, ReopenAfterTornAppendCutsTheTornTail) {
  const std::string path =
      ::testing::TempDir() + "/dsm_plan_journal_torn_test.log";
  std::remove(path.c_str());

  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  const auto base = TwitterBaseSharings(world.tables, *world.cluster);
  const auto plan = [&](size_t i) {
    const auto plans =
        testing_support::EnumerateAll(*rig.enumerator, base[i]);
    EXPECT_TRUE(plans.ok());
    return plans->front();
  };
  size_t intact = 0;
  {
    PlanJournal journal(path);
    ASSERT_TRUE(journal.Open().ok());
    ASSERT_TRUE(journal.Append(1, base[0], plan(0)).ok());
    intact = journal.contents().size();
    ScopedFault crash("io/journal-append");
    EXPECT_EQ(journal.Append(2, base[1], plan(1)).code(),
              StatusCode::kInternal);
    ASSERT_GT(journal.contents().size(), intact);
  }

  PlanJournal reopened(path);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.contents().size(), intact);
  EXPECT_EQ(std::filesystem::file_size(path), intact);
  ASSERT_TRUE(reopened.Append(3, base[2], plan(2)).ok());

  // The file alone, as the next recovery reads it.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream file;
  file << in.rdbuf();
  EXPECT_EQ(file.str(), reopened.contents());
  const auto replay = ReplayJournal(file.str());
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->tail_dropped);
  ASSERT_EQ(replay->records_recovered, 2u);
  EXPECT_EQ(replay->entries[0].id, 1u);
  EXPECT_EQ(replay->entries[1].id, 3u);
  std::remove(path.c_str());
}

TEST(PlanJournalTest, ReopeningAFileWithoutTheHeaderIsRefused) {
  const std::string path =
      ::testing::TempDir() + "/dsm_plan_journal_headerless_test.log";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a journal\n";
  }
  PlanJournal journal(path);
  EXPECT_EQ(journal.Open().code(), StatusCode::kInvalidArgument);
  // Refused before any write: the file is as it was.
  EXPECT_EQ(std::filesystem::file_size(path), 14u);
  std::remove(path.c_str());
}

TEST(PlanJournalTest, RecoverMarketStatePrefersSnapshotOnDuplicates) {
  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  PlanJournal journal;
  ASSERT_TRUE(journal.Open().ok());
  PlanAndJournal(world, rig, &journal, 4);

  // Snapshot taken after the first two commits; the journal covers all
  // four, so recovery must add exactly the two the snapshot missed.
  GlobalPlan snapshot_gp(world.cluster.get(), world.model.get());
  {
    const auto replay = ReplayJournal(journal.contents());
    ASSERT_TRUE(replay.ok());
    for (size_t i = 0; i < 2; ++i) {
      const auto& e = replay->entries[i];
      ASSERT_TRUE(snapshot_gp.AddSharing(e.id, e.sharing, e.plan).ok());
    }
  }
  const auto snapshot =
      MarketStateToString(*world.catalog, *world.cluster, &snapshot_gp);
  ASSERT_TRUE(snapshot.ok());

  JournalReplay stats;
  const auto state =
      RecoverMarketState(*snapshot, journal.contents(), &stats);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(stats.records_recovered, 4u);
  ASSERT_EQ(state->sharings.size(), 4u);

  // The recovered state restores into the same global plan the live
  // process had after all four commits.
  GlobalPlan restored(world.cluster.get(), world.model.get());
  ASSERT_TRUE(RestoreGlobalPlan(*state, &restored).ok());
  EXPECT_NEAR(restored.TotalCost(), rig.global_plan->TotalCost(), 1e-9);
  EXPECT_EQ(restored.num_alive_views(), rig.global_plan->num_alive_views());
}

// A journaled sharing over a table the snapshot's catalog lacks is
// refused like one in the snapshot itself: restoring it would index the
// cost model's catalog out of bounds.
TEST(PlanJournalTest, RecoveryRejectsJournaledTablesOutsideTheCatalog) {
  const TwitterScenario world = MakeTwitterScenario(3);
  const auto snapshot =
      MarketStateToString(*world.catalog, *world.cluster, nullptr);
  ASSERT_TRUE(snapshot.ok());
  const auto journal_over = [](TableId table) {
    PlanNode leaf;
    leaf.key.tables = TableSet::Of(table);
    leaf.base_table = table;
    PlanJournal journal;
    EXPECT_TRUE(journal.Open().ok());
    EXPECT_TRUE(journal
                    .Append(1, Sharing(TableSet::Of(table), {}, 0),
                            SharingPlan{{leaf}})
                    .ok());
    return journal.contents();
  };
  const TableId last = static_cast<TableId>(world.catalog->num_tables() - 1);
  EXPECT_TRUE(RecoverMarketState(*snapshot, journal_over(last)).ok());
  EXPECT_EQ(RecoverMarketState(*snapshot, journal_over(last + 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dsm
