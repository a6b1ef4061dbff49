// PlanJournal: an append-only write-ahead log of committed plan choices.
//
// A market snapshot (WriteMarketState) is expensive and racy to rewrite on
// every arrival; the journal makes commits durable incrementally instead.
// Each committed (sharing, plan) pair is appended as one framed record:
//
//   dsm-journal v1\n                     -- header, once
//   rec <payload-bytes> <fnv1a64-hex>\n  -- frame header
//   <payload>                            -- WriteSharingRecord block
//
// Recovery replays snapshot + journal. Because a crash can interrupt an
// append at any byte, the reader treats the journal as trustworthy only up
// to the first bad frame: a truncated or checksum-mismatching tail is
// dropped (never a crash, never an error) and the number of records that
// survived is reported, so the caller knows exactly which sharings must be
// re-planned. The "io/journal-append" fault point simulates such torn
// writes deterministically in tests.

#ifndef DSM_IO_PLAN_JOURNAL_H_
#define DSM_IO_PLAN_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/market_io.h"

namespace dsm {

// FNV-1a 64-bit checksum used for journal frames.
uint64_t JournalChecksum(const std::string& payload);

class PlanJournal {
 public:
  // In-memory journal (tests, or callers that persist contents()
  // themselves).
  PlanJournal() = default;
  // File-backed journal: every Append is written through and flushed.
  explicit PlanJournal(std::string path) : path_(std::move(path)) {}

  PlanJournal(const PlanJournal&) = delete;
  PlanJournal& operator=(const PlanJournal&) = delete;

  // Prepares the journal: loads an existing backing file (its contents
  // become the in-memory image) or starts a fresh journal with the header
  // line. In-memory journals just write the header. A loaded image is
  // replayed first: one without the header is InvalidArgument, and a
  // damaged tail is cut from the image and from the file, so later
  // appends follow the last intact record. Must be called once before
  // Append.
  Status Open();

  // Appends one committed plan choice. On a torn write (simulated via the
  // "io/journal-append" fault point) a partial frame is left behind and
  // kInternal is returned — exactly what a crash mid-append leaves on
  // disk.
  Status Append(SharingId id, const Sharing& sharing,
                const SharingPlan& plan);

  const std::string& contents() const { return contents_; }
  size_t records_appended() const { return records_appended_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;  // empty = in-memory only
  std::string contents_;
  size_t records_appended_ = 0;
  bool open_ = false;
};

struct JournalReplay {
  std::vector<SharingStateEntry> entries;
  size_t records_recovered = 0;
  // Bytes of corrupt/truncated tail that were dropped (0 = clean log).
  size_t bytes_dropped = 0;
  bool tail_dropped = false;
};

// Replays a journal image. Never fails on a damaged tail — the bad suffix
// is dropped and reported. Only a missing/garbled header is an error.
// `num_servers`, when nonzero, bounds server ids in the records.
Result<JournalReplay> ReplayJournal(const std::string& journal_text,
                                    size_t num_servers = 0);

// Full crash recovery: parses the market snapshot, then appends every
// journaled sharing that the snapshot does not already contain. The
// merged sharings' ids are checked against the snapshot's cluster and
// catalog as ReadMarketState checks its own. `replay` (optional) receives
// the journal replay statistics.
Result<MarketState> RecoverMarketState(const std::string& snapshot_text,
                                       const std::string& journal_text,
                                       JournalReplay* replay = nullptr);

}  // namespace dsm

#endif  // DSM_IO_PLAN_JOURNAL_H_
