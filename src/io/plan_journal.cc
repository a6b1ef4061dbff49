#include "io/plan_journal.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/fault.h"
#include "io/market_ids.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {
namespace {

constexpr const char* kJournalHeader = "dsm-journal v1";

std::string FrameRecord(const std::string& payload) {
  char head[64];
  std::snprintf(head, sizeof(head), "rec %zu %016llx\n", payload.size(),
                static_cast<unsigned long long>(JournalChecksum(payload)));
  return head + payload;
}

Status AppendToFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    return Status::Internal("cannot open journal file: " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) {
    return Status::Internal("journal write failed: " + path);
  }
  return Status::OK();
}

}  // namespace

uint64_t JournalChecksum(const std::string& payload) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : payload) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Status PlanJournal::Open() {
  if (open_) {
    return Status::AlreadyExists("journal already open");
  }
  if (!path_.empty()) {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      contents_ = buf.str();
    }
  }
  if (contents_.empty()) {
    contents_ = std::string(kJournalHeader) + "\n";
    if (!path_.empty()) {
      DSM_RETURN_IF_ERROR(AppendToFile(path_, contents_));
    }
  } else {
    // A torn tail left by a crash must go before the first append:
    // replay stops at the first bad frame, so a frame written behind it
    // would be lost.
    DSM_ASSIGN_OR_RETURN(const JournalReplay replay,
                         ReplayJournal(contents_));
    if (replay.tail_dropped) {
      contents_.resize(contents_.size() - replay.bytes_dropped);
      std::error_code error;
      std::filesystem::resize_file(path_, contents_.size(), error);
      if (error) {
        return Status::Internal("cannot cut the journal's torn tail: " +
                                path_ + ": " + error.message());
      }
    }
  }
  open_ = true;
  return Status::OK();
}

Status PlanJournal::Append(SharingId id, const Sharing& sharing,
                           const SharingPlan& plan) {
  if (!open_) {
    return Status::InvalidArgument("journal not open");
  }
  std::ostringstream payload_out;
  payload_out.precision(17);
  WriteSharingRecord(id, sharing, plan, &payload_out);
  const std::string frame = FrameRecord(payload_out.str());

  // Torn write: the process "dies" partway through the append, leaving a
  // partial frame for recovery to drop.
  if (DSM_INJECT_FAULT("io/journal-append")) {
    DSM_METRIC_COUNTER_ADD("dsm.io.journal_append_failures", 1);
    const std::string partial = frame.substr(0, frame.size() / 2);
    contents_ += partial;
    if (!path_.empty()) {
      DSM_RETURN_IF_ERROR(AppendToFile(path_, partial));
    }
    return Status::Internal("simulated crash during journal append");
  }

  contents_ += frame;
  if (!path_.empty()) {
    DSM_RETURN_IF_ERROR(AppendToFile(path_, frame));
  }
  ++records_appended_;
  DSM_METRIC_COUNTER_ADD("dsm.io.journal_appends", 1);
  return Status::OK();
}

Result<JournalReplay> ReplayJournal(const std::string& journal_text,
                                    size_t num_servers) {
  DSM_METRIC_COUNTER_ADD("dsm.io.journal_replays", 1);
  DSM_TRACE_SPAN("io/journal_replay");
  JournalReplay replay;
  size_t pos = journal_text.find('\n');
  if (pos == std::string::npos ||
      journal_text.substr(0, pos) != kJournalHeader) {
    return Status::InvalidArgument("missing dsm-journal header");
  }
  ++pos;  // past the header newline

  while (pos < journal_text.size()) {
    const size_t frame_start = pos;
    const size_t eol = journal_text.find('\n', pos);
    bool bad = false;
    size_t payload_len = 0;
    unsigned long long checksum = 0;
    if (eol == std::string::npos) {
      bad = true;  // torn frame header
    } else {
      const std::string head = journal_text.substr(pos, eol - pos);
      unsigned long long len = 0;
      if (std::sscanf(head.c_str(), "rec %llu %llx", &len, &checksum) !=
          2) {
        bad = true;  // garbled frame header
      } else {
        payload_len = static_cast<size_t>(len);
        // Compared against the bytes left, so a declared length near
        // 2^64 cannot wrap the sum past the end of the text.
        if (payload_len > journal_text.size() - (eol + 1)) {
          bad = true;  // truncated payload
        }
      }
    }
    if (!bad) {
      const std::string payload = journal_text.substr(eol + 1, payload_len);
      if (JournalChecksum(payload) != checksum) {
        bad = true;  // bit rot / torn payload
      } else {
        Result<SharingStateEntry> entry =
            ParseSharingRecord(payload, num_servers);
        if (!entry.ok()) {
          bad = true;  // frame intact but payload nonsense
        } else {
          replay.entries.push_back(std::move(*entry));
          ++replay.records_recovered;
          pos = eol + 1 + payload_len;
          continue;
        }
      }
    }
    // Everything from the damaged frame on is untrustworthy: frame
    // boundaries can no longer be recovered. Drop the suffix.
    replay.bytes_dropped = journal_text.size() - frame_start;
    replay.tail_dropped = true;
    break;
  }
  DSM_METRIC_COUNTER_ADD("dsm.io.records_recovered",
                         replay.records_recovered);
  DSM_METRIC_COUNTER_ADD("dsm.io.bytes_dropped", replay.bytes_dropped);
  return replay;
}

Result<MarketState> RecoverMarketState(const std::string& snapshot_text,
                                       const std::string& journal_text,
                                       JournalReplay* replay_out) {
  DSM_ASSIGN_OR_RETURN(MarketState state,
                       MarketStateFromString(snapshot_text));
  DSM_ASSIGN_OR_RETURN(
      JournalReplay replay,
      ReplayJournal(journal_text, state.cluster.num_servers()));

  // The snapshot is authoritative for sharings it already contains; the
  // journal re-delivers them when it predates the snapshot's cut.
  std::unordered_set<SharingId> have;
  for (const SharingStateEntry& entry : state.sharings) {
    have.insert(entry.id);
  }
  for (SharingStateEntry& entry : replay.entries) {
    if (have.count(entry.id) != 0) continue;
    have.insert(entry.id);
    state.sharings.push_back(std::move(entry));
  }
  // Journaled sharings must fit the snapshot's catalog too.
  DSM_RETURN_IF_ERROR(io_internal::CheckMarketIds(state));
  if (replay_out != nullptr) {
    replay.entries.clear();
    *replay_out = std::move(replay);
  }
  return state;
}

}  // namespace dsm
