// Append-only traffic journal: the record side of deterministic replay.
//
// A journal is a flat file of length-prefixed, CRC32-framed records:
//
//   file      := magic("FSJ1") frame*
//   frame     := u32 payload_len | u32 crc32(payload) | payload
//   payload   := u8 kind | i64 sim_time_ms | fields...
//
// All integers are little-endian (util::ByteWriter). The first frame is
// always a Header record carrying the format version, the scenario seed and
// a digest of the scenario configuration, so a reader can refuse to replay a
// journal against the wrong platform build-out.
//
// Durability model: the file is append-only and frames are appended in
// order, each one complete before the next begins, so a crashed recorder
// leaves at most one torn frame at the tail: any prefix of the last frame.
// On open the reader drops a final frame that is truncated or fails its CRC
// and reports `recovered_torn_tail()`; a bad CRC anywhere *before* the tail
// is real corruption and fails the open with kJournalCorrupt. So does a frame
// whose CRC holds but which is no record (a kind byte outside RecordKind, a
// payload shorter than its kind/time prefix, a first frame that is not a
// supported Header, a second Header), wherever it sits: a checksummed frame
// was written whole, so it is not the residue of a crash. scan_journal and
// JournalReader::open walk the frames with one function and apply this rule
// identically.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "util/archive.hpp"
#include "util/result.hpp"

namespace fraudsim::journal {

inline constexpr char kMagic[4] = {'F', 'S', 'J', '1'};
// v2: ClientContext frames carry the payment token (entity-graph linking).
inline constexpr std::uint32_t kFormatVersion = 2;

// The first frame's fields.
struct Header {
  std::uint32_t version = 0;
  std::uint64_t seed = 0;
  std::uint64_t config_digest = 0;
  template <class Ar>
  void visit(Ar& ar) {
    ar(version, seed, config_digest);
  }
};

enum class RecordKind : std::uint8_t {
  Header = 1,
  ActorRegistered,   // ground-truth registry growth (id + kind)
  Browse,            // facade calls: arguments + observed outcome
  Hold,
  QuoteFare,
  Pay,
  RequestOtp,
  VerifyOtp,
  RetrieveBooking,
  BoardingSms,
  BoardingEmail,
  ExpirySweep,       // platform housekeeping the harness drives
  MitigationSweep,
  ControllerFit,     // NiP-baseline fit window
  MitigationAction,  // informational enforcement ledger entry (not replayed)
  Checkpoint,        // full platform state blob (restore point); the last kind
};

[[nodiscard]] const char* to_string(RecordKind k);

// One framed record. `fields` is the payload after the kind/time prefix, a
// view into the file its JournalReader holds: valid while that reader lives
// and until its next open(). Wrap it in a util::ByteReader and read the
// kind's field list (recording.hpp).
struct Record {
  RecordKind kind = RecordKind::Header;
  sim::SimTime time = 0;
  std::string_view fields;
};

// Appends frames to a journal file. Every path returns a typed Status; once
// a write fails the writer latches the error and refuses further appends
// (a half-written journal must not keep growing past the torn frame).
//
// Crash injection: append() consults crash.journal.frame (and
// crash.journal.checkpoint for Checkpoint records). When the armed point
// fires, a torn prefix of the frame is flushed to disk and a fault::SimCrash
// unwinds — the on-disk state is exactly a kill mid-append.
class JournalWriter {
 public:
  JournalWriter() = default;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter() { out_.close(); }

  // Creates/truncates `path`, writes the magic and the Header frame.
  util::Status open(const std::string& path, std::uint64_t seed, std::uint64_t config_digest);

  // Frames and appends one record. `fields` is the record body after the
  // kind/time prefix (pass an empty writer for field-less records); `tail`
  // follows `fields` verbatim, so a large blob reaches the file uncopied.
  util::Status append(RecordKind kind, sim::SimTime time, const util::ByteWriter& fields,
                      std::string_view tail = {});

  // Flushes and closes; reports deferred write errors.
  util::Status close();

  [[nodiscard]] bool is_open() const { return out_.is_open(); }
  [[nodiscard]] std::uint64_t frames_written() const { return frames_; }

 private:
  std::ofstream out_;
  std::uint64_t frames_ = 0;
  bool failed_ = false;
};

// Frame-level scan without decoding record bodies: how much of the file is a
// valid, checksummed prefix, and what kind of damage (if any) follows it.
struct JournalScan {
  std::uint64_t total_bytes = 0;   // file size
  std::uint64_t intact_bytes = 0;  // magic + intact frames; == total_bytes when clean
  std::uint64_t frames = 0;        // intact frames, including the Header
  bool has_header = false;         // first frame parsed as a supported Header
  bool torn_tail = false;          // crash residue after the intact prefix at EOF
  // Unrecoverable damage: a CRC-bad frame *before* EOF, or a checksummed
  // frame that is no record (see the file comment).
  bool corrupt_mid_file = false;
  [[nodiscard]] std::uint64_t tail_bytes() const { return total_bytes - intact_bytes; }
};

// Scans `path`. Fails only when the file cannot be opened or is not a
// journal at all (bad magic); damage beyond that is reported in the scan.
[[nodiscard]] util::Result<JournalScan> scan_journal(const std::string& path);

// Truncates a torn journal to its last good frame, appending the dropped
// tail bytes to `quarantine_path` for forensics first. No-op on a clean
// journal; fails with kJournalCorrupt on mid-file corruption (frame-level
// salvage is impossible — the caller should quarantine the whole file).
// Returns the pre-repair scan: torn_tail=true means a tail WAS truncated and
// tail_bytes() is the quarantined byte count.
[[nodiscard]] util::Result<JournalScan> truncate_torn_tail(const std::string& path,
                                                           const std::string& quarantine_path);

// Reads and validates a whole journal on open, and keeps the file: its
// records are views into it.
class JournalReader {
 public:
  JournalReader() = default;
  JournalReader(const JournalReader&) = delete;
  JournalReader& operator=(const JournalReader&) = delete;

  // Loads `path`, verifies the magic, every frame's CRC and the Header
  // record. A torn tail (truncated or CRC-bad *final* frame) is dropped and
  // flagged; corruption anywhere else fails with kJournalCorrupt.
  util::Status open(const std::string& path);

  [[nodiscard]] std::uint32_t version() const { return header_.version; }
  [[nodiscard]] std::uint64_t seed() const { return header_.seed; }
  [[nodiscard]] std::uint64_t config_digest() const { return header_.config_digest; }
  // True when a torn final frame was dropped during open().
  [[nodiscard]] bool recovered_torn_tail() const { return recovered_; }

  // All records after the Header, in file order.
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  // The file as opened (a torn tail included).
  [[nodiscard]] const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;  // the file; records_ view into it
  Header header_;
  bool recovered_ = false;
  std::vector<Record> records_;
};

}  // namespace fraudsim::journal
