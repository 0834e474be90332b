// Journal + deterministic replay + shadow re-scoring.
//
// The heavyweight properties are end-to-end on a deliberately small scenario
// (hours of sim time, low demand): record==baseline (journaling off is
// byte-identical), record→replay byte-identical artifacts, replay from the
// last checkpoint equals full replay, and a same-config shadow rescore
// produces zero verdict diffs.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/fault/crash.hpp"
#include "core/journal/recording.hpp"
#include "core/scenario/replay_harness.hpp"
#include "sim/rng.hpp"
#include "util/hash.hpp"

namespace fraudsim {
namespace {

std::string tmp_path(const std::string& name) { return testing::TempDir() + name; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return bytes;
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Small but complete: legit demand + attacker waves + mitigation sweeps +
// two embedded checkpoints inside the horizon.
scenario::RecordedScenarioConfig small_config(std::uint64_t seed = 2024) {
  scenario::RecordedScenarioConfig config;
  config.seed = seed;
  config.horizon = sim::hours(8);
  config.flights = 4;
  config.capacity = 40;
  config.legit.booking_sessions_per_hour = 6;
  config.legit.browse_sessions_per_hour = 4;
  config.legit.otp_logins_per_hour = 3;
  config.attacker_start = sim::hours(1);
  config.attacker_period = sim::minutes(15);
  config.controller_fit_at = sim::hours(1);
  config.controller.sweep_interval = sim::hours(1);
  config.rate_limits.push_back(mitigate::RateLimitSpec{
      "hold-per-ip", web::Endpoint::HoldReservation, mitigate::RateKey::ByIp, 20, sim::kHour});
  config.checkpoint_every = sim::hours(3);
  return config;
}

// --- Framing ----------------------------------------------------------------

TEST(JournalFraming, Crc32KnownVector) {
  // The canonical CRC-32 check value ("123456789" under the IEEE polynomial).
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
}

// The reference CRC-32: one table step per byte, each waiting on the last.
// `crc` continues an earlier checksum, as util::crc32_append does.
std::uint32_t crc32_bytewise(std::string_view bytes, std::uint32_t crc = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (const unsigned char b : bytes) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// `n` bytes from a splitmix64 stream: every byte value, no structure.
std::string seeded_bytes(std::size_t n, std::uint64_t seed) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(util::splitmix64(seed + i / 8) >> (8 * (i % 8)));
  }
  return out;
}

TEST(Crc32, SliceByEightMatchesBytewise) {
  EXPECT_EQ(util::crc32(""), 0u);
  EXPECT_EQ(crc32_bytewise(""), 0u);
  EXPECT_EQ(crc32_bytewise("123456789"), 0xCBF43926u);

  // Every length through the 8-byte stride and its tail, then longer runs.
  for (std::size_t n = 0; n <= 64; ++n) {
    const std::string bytes = seeded_bytes(n, 100 + n);
    EXPECT_EQ(util::crc32(bytes), crc32_bytewise(bytes)) << "length " << n;
  }
  for (const std::size_t n : {127u, 255u, 256u, 1000u, 1023u, 4095u, 4096u, 4097u, 4100u}) {
    const std::string bytes = seeded_bytes(n, n);
    EXPECT_EQ(util::crc32(bytes), crc32_bytewise(bytes)) << "length " << n;
  }

  // Unaligned starts: the same lengths read from offsets 0..7 of a buffer.
  const std::string big = seeded_bytes(4200, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 4100u}) {
      const std::string_view view = std::string_view(big).substr(offset, n);
      EXPECT_EQ(util::crc32(view), crc32_bytewise(view)) << "offset " << offset << " length " << n;
    }
  }

  // Continuation: a checksum taken in two pieces equals the one-piece sum.
  const std::string kib = seeded_bytes(1024, 11);
  const std::uint32_t whole = crc32_bytewise(kib);
  for (std::size_t split = 0; split <= kib.size(); ++split) {
    const std::string_view all(kib);
    EXPECT_EQ(util::crc32_append(util::crc32(all.substr(0, split)), all.substr(split)), whole)
        << "split " << split;
  }
}

TEST(Crc32, ClmulAndTablePathsMatchBytewise) {
  // crc32_append folds with PCLMULQDQ where the CPU has it; elsewhere both
  // entries run the table loop.
  RecordProperty("clmul", util::detail::crc32_clmul_available() ? "yes" : "no");
  using Kernel = std::uint32_t (*)(std::uint32_t, std::string_view) noexcept;
  const std::pair<const char*, Kernel> kernels[] = {
      {"table", &util::detail::crc32_append_table}, {"crc32_append", &util::crc32_append}};

  // Every length 0..4096 from every start offset 0..15, each continuing a
  // different random checksum: all block counts, 16-byte remainders, byte
  // tails and load alignments of both kernels.
  const std::string big = seeded_bytes(4096 + 16, 41);
  std::size_t mismatches = 0;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t n = 0; n <= 4096; ++n) {
      const auto seed = static_cast<std::uint32_t>(util::splitmix64(offset << 16 | n));
      const std::string_view view = std::string_view(big).substr(offset, n);
      const std::uint32_t want = crc32_bytewise(view, seed);
      for (const auto& [name, kernel] : kernels) {
        if (kernel(seed, view) != want && ++mismatches <= 5) {
          ADD_FAILURE() << name << " offset " << offset << " length " << n;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // Continuation at every split point of an unaligned 4 KiB span.
  const std::string_view all = std::string_view(big).substr(3, 4099);
  const std::uint32_t seed = 0x9E3779B9u;
  const std::uint32_t whole = crc32_bytewise(all, seed);
  for (const auto& [name, kernel] : kernels) {
    for (std::size_t split = 0; split <= all.size(); ++split) {
      ASSERT_EQ(kernel(kernel(seed, all.substr(0, split)), all.substr(split)), whole)
          << name << " split " << split;
    }
  }
}

// A journal with every frame shape: the header, one record of each kind
// (field-less ones empty, as the recorder writes them) and a 1 MiB
// checkpoint blob streamed through RecordingJournal. Throws fault::SimCrash
// when a crash point is armed.
void write_pinned_journal(const std::string& path) {
  journal::JournalWriter writer;
  ASSERT_TRUE(writer.open(path, 0x0123456789ABCDEFull, 0xFEDCBA9876543210ull).is_ok());
  for (auto k = static_cast<std::uint8_t>(journal::RecordKind::ActorRegistered);
       k < static_cast<std::uint8_t>(journal::RecordKind::Checkpoint); ++k) {
    const auto kind = static_cast<journal::RecordKind>(k);
    util::ByteWriter fields;
    if (kind != journal::RecordKind::ExpirySweep && kind != journal::RecordKind::MitigationSweep) {
      fields.str(journal::to_string(kind));
      fields.u8(k);
      fields.u16(static_cast<std::uint16_t>(0x0100 + k));
      fields.u32(0x01020300u + k);
      fields.u64(0x0102030405060700ull + k);
      fields.i64(-k);
      fields.f64(k * 0.25);
      fields.boolean(k % 2 == 0);
    }
    ASSERT_TRUE(writer.append(kind, sim::minutes(k) - 3, fields).is_ok()) << static_cast<int>(k);
  }
  journal::RecordingJournal recording(writer);
  recording.checkpoint_blob(sim::hours(1), seeded_bytes(std::size_t{1} << 20, 2024));
  ASSERT_TRUE(recording.status().is_ok());
  ASSERT_TRUE(writer.close().is_ok());
}

TEST(JournalFraming, FrameBytesArePinned) {
  // Digests of the files the bytewise CRC and the copy-then-write framing
  // produced: the journal format must not move by a single byte.
  constexpr std::uint64_t kCleanDigest = 0xa3d29030dfea992dull;
  constexpr std::uint64_t kTornDigest = 0xda082c8e0c2222a1ull;

  const std::string path = tmp_path("pinned.journal");
  write_pinned_journal(path);
  EXPECT_EQ(util::fnv1a(slurp(path)), kCleanDigest);
  journal::JournalReader reader;
  ASSERT_TRUE(reader.open(path).is_ok());
  EXPECT_FALSE(reader.recovered_torn_tail());
  ASSERT_EQ(reader.records().size(), 15u);
  EXPECT_EQ(reader.records().back().kind, journal::RecordKind::Checkpoint);

  // A kill mid-checkpoint leaves the same torn prefix as before.
  const std::string torn_path = tmp_path("pinned-torn.journal");
  fault::FaultRegistry::global().reset();
  fault::FaultRegistry::global().arm(fault::kCrashJournalCheckpoint,
                                     fault::FaultScenario::crash_at_hit(1));
  EXPECT_THROW(write_pinned_journal(torn_path), fault::SimCrash);
  fault::FaultRegistry::global().reset();
  EXPECT_EQ(util::fnv1a(slurp(torn_path)), kTornDigest);
  journal::JournalReader torn;
  ASSERT_TRUE(torn.open(torn_path).is_ok());
  EXPECT_TRUE(torn.recovered_torn_tail());
  EXPECT_EQ(torn.records().size(), 14u);
}

TEST(JournalFraming, WriteReadRoundtrip) {
  const std::string path = tmp_path("roundtrip.journal");
  journal::JournalWriter writer;
  ASSERT_TRUE(writer.open(path, 42, 777).is_ok());
  util::ByteWriter fields;
  fields.str("hello");
  fields.u64(99);
  ASSERT_TRUE(writer.append(journal::RecordKind::Browse, 1234, fields).is_ok());
  ASSERT_TRUE(writer.append(journal::RecordKind::ExpirySweep, 5678, util::ByteWriter{}).is_ok());
  ASSERT_TRUE(writer.close().is_ok());

  journal::JournalReader reader;
  ASSERT_TRUE(reader.open(path).is_ok());
  EXPECT_EQ(reader.seed(), 42u);
  EXPECT_EQ(reader.config_digest(), 777u);
  EXPECT_FALSE(reader.recovered_torn_tail());
  ASSERT_EQ(reader.records().size(), 2u);
  EXPECT_EQ(reader.records()[0].kind, journal::RecordKind::Browse);
  EXPECT_EQ(reader.records()[0].time, 1234);
  util::ByteReader in(reader.records()[0].fields);
  EXPECT_EQ(in.str(), "hello");
  EXPECT_EQ(in.u64(), 99u);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(reader.records()[1].kind, journal::RecordKind::ExpirySweep);
}

TEST(JournalFraming, TruncatedTailIsRecoveredNotFatal) {
  const std::string path = tmp_path("torn.journal");
  journal::JournalWriter writer;
  ASSERT_TRUE(writer.open(path, 1, 2).is_ok());
  util::ByteWriter fields;
  fields.str("intact");
  ASSERT_TRUE(writer.append(journal::RecordKind::Pay, 10, fields).is_ok());
  ASSERT_TRUE(writer.append(journal::RecordKind::Pay, 20, fields).is_ok());
  ASSERT_TRUE(writer.close().is_ok());

  const std::string bytes = slurp(path);
  // Chop mid-way through the last frame: the crash residue of an append.
  for (std::size_t cut = 1; cut < 12; ++cut) {
    spit(path, bytes.substr(0, bytes.size() - cut));
    journal::JournalReader reader;
    ASSERT_TRUE(reader.open(path).is_ok()) << "cut " << cut;
    EXPECT_TRUE(reader.recovered_torn_tail()) << "cut " << cut;
    ASSERT_EQ(reader.records().size(), 1u) << "cut " << cut;
    EXPECT_EQ(reader.records()[0].time, 10);
  }
}

// A crash can tear the final frame no matter which record kind was being
// appended. For EVERY kind: scan_journal flags the torn tail, the reader
// salvages the intact prefix, and truncate_torn_tail repairs the file to a
// clean journal with the tail bytes preserved for forensics.
TEST(JournalFraming, TornTailRecoversForEveryRecordKind) {
  const journal::RecordKind kinds[] = {
      journal::RecordKind::ActorRegistered, journal::RecordKind::Browse,
      journal::RecordKind::Hold,            journal::RecordKind::QuoteFare,
      journal::RecordKind::Pay,             journal::RecordKind::RequestOtp,
      journal::RecordKind::VerifyOtp,       journal::RecordKind::RetrieveBooking,
      journal::RecordKind::BoardingSms,     journal::RecordKind::BoardingEmail,
      journal::RecordKind::ExpirySweep,     journal::RecordKind::MitigationSweep,
      journal::RecordKind::ControllerFit,   journal::RecordKind::MitigationAction,
      journal::RecordKind::Checkpoint};
  for (const auto kind : kinds) {
    const std::string label = journal::to_string(kind);
    const std::string path = tmp_path("torn-" + label + ".journal");
    journal::JournalWriter writer;
    ASSERT_TRUE(writer.open(path, 7, 8).is_ok()) << label;
    util::ByteWriter intact;
    intact.str("intact");
    ASSERT_TRUE(writer.append(journal::RecordKind::Browse, 10, intact).is_ok()) << label;
    util::ByteWriter fields;
    fields.str("payload-for-" + label);
    fields.u64(static_cast<std::uint64_t>(kind));
    ASSERT_TRUE(writer.append(kind, 20, fields).is_ok()) << label;
    ASSERT_TRUE(writer.close().is_ok()) << label;

    // Tear mid-way through the final frame.
    const std::string bytes = slurp(path);
    spit(path, bytes.substr(0, bytes.size() - 5));

    const auto scan = journal::scan_journal(path);
    ASSERT_TRUE(scan.has_value()) << label;
    EXPECT_TRUE(scan.value().torn_tail) << label;
    EXPECT_FALSE(scan.value().corrupt_mid_file) << label;
    EXPECT_EQ(scan.value().frames, 2u) << label;  // Header + Browse survive

    journal::JournalReader reader;
    ASSERT_TRUE(reader.open(path).is_ok()) << label;
    EXPECT_TRUE(reader.recovered_torn_tail()) << label;
    ASSERT_EQ(reader.records().size(), 1u) << label;
    EXPECT_EQ(reader.records()[0].kind, journal::RecordKind::Browse) << label;

    const std::string quarantine = tmp_path("torn-" + label + ".tail");
    std::remove(quarantine.c_str());  // truncate_torn_tail appends; start clean
    const auto repaired = journal::truncate_torn_tail(path, quarantine);
    ASSERT_TRUE(repaired.has_value()) << label;
    EXPECT_TRUE(repaired.value().torn_tail) << label;
    EXPECT_EQ(repaired.value().tail_bytes(), slurp(quarantine).size()) << label;
    // Repaired file: clean scan, no tail, both surviving frames intact.
    const auto rescan = journal::scan_journal(path);
    ASSERT_TRUE(rescan.has_value()) << label;
    EXPECT_FALSE(rescan.value().torn_tail) << label;
    EXPECT_EQ(rescan.value().frames, 2u) << label;
    EXPECT_EQ(rescan.value().tail_bytes(), 0u) << label;
  }
}

TEST(JournalFraming, MidFileCorruptionIsFatal) {
  const std::string path = tmp_path("corrupt.journal");
  journal::JournalWriter writer;
  ASSERT_TRUE(writer.open(path, 1, 2).is_ok());
  util::ByteWriter fields;
  fields.str("payload-payload-payload");
  ASSERT_TRUE(writer.append(journal::RecordKind::Pay, 10, fields).is_ok());
  ASSERT_TRUE(writer.append(journal::RecordKind::Pay, 20, fields).is_ok());
  ASSERT_TRUE(writer.close().is_ok());

  std::string bytes = slurp(path);
  // Flip a byte inside the FIRST data frame's payload (well before EOF).
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  spit(path, bytes);

  journal::JournalReader reader;
  const auto status = reader.open(path);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), util::ErrorCode::kJournalCorrupt);
}

TEST(JournalFraming, BadMagicIsCorrupt) {
  const std::string path = tmp_path("magic.journal");
  spit(path, "NOPE this is not a journal");
  journal::JournalReader reader;
  const auto status = reader.open(path);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), util::ErrorCode::kJournalCorrupt);
}

TEST(JournalFraming, MissingFileIsNotFound) {
  journal::JournalReader reader;
  const auto status = reader.open(tmp_path("does-not-exist.journal"));
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), util::ErrorCode::kNotFound);
}

// Edge and hostile files: each opens to the status the torn-tail rule gives
// it, and none crashes the mapped reader.
TEST(JournalFraming, EdgeFilesOpenToTheirRuleStatus) {
  const std::string whole_path = tmp_path("edge-whole.journal");
  journal::JournalWriter writer;
  ASSERT_TRUE(writer.open(whole_path, 1, 2).is_ok());
  util::ByteWriter fields;
  fields.str("payload");
  ASSERT_TRUE(writer.append(journal::RecordKind::Pay, 10, fields).is_ok());
  ASSERT_TRUE(writer.close().is_ok());
  const std::string whole = slurp(whole_path);
  // magic(4) | Header frame (8 + 9 + 20) | Pay frame (8 + 9 + 11).
  const std::size_t header_end = 4 + 8 + 9 + 20;
  ASSERT_EQ(whole.size(), header_end + 8 + 9 + 11);

  const struct {
    const char* label;
    std::string bytes;
    util::ErrorCode code;  // kOk when the open succeeds
    bool torn;
  } cases[] = {
      {"empty", "", util::ErrorCode::kJournalCorrupt, false},
      {"shorter than the magic", whole.substr(0, 3), util::ErrorCode::kJournalCorrupt, false},
      {"magic only", whole.substr(0, 4), util::ErrorCode::kJournalCorrupt, false},
      {"cut mid Header frame head", whole.substr(0, 9), util::ErrorCode::kJournalCorrupt, false},
      {"cut mid Header payload", whole.substr(0, header_end - 5),
       util::ErrorCode::kJournalCorrupt, false},
      {"cut mid frame head", whole.substr(0, header_end + 3), util::ErrorCode::kOk, true},
      {"cut mid frame", whole.substr(0, whole.size() - 4), util::ErrorCode::kOk, true},
      {"whole", whole, util::ErrorCode::kOk, false},
  };
  const std::string path = tmp_path("edge.journal");
  for (const auto& c : cases) {
    spit(path, c.bytes);
    journal::JournalReader reader;
    const auto status = reader.open(path);
    EXPECT_EQ(status.code(), c.code) << c.label;
    EXPECT_EQ(reader.recovered_torn_tail(), c.torn) << c.label;
    if (status.is_ok()) {
      EXPECT_EQ(reader.records().size(), c.torn ? 0u : 1u) << c.label;
      EXPECT_EQ(reader.bytes(), c.bytes) << c.label;
    }
  }

  // No file and a directory are both "cannot open", never a throw.
  for (const std::string& missing : {tmp_path("edge-missing.journal"), testing::TempDir()}) {
    journal::JournalReader reader;
    const auto status = reader.open(missing);
    EXPECT_EQ(status.code(), util::ErrorCode::kNotFound) << missing;
    EXPECT_FALSE(reader.recovered_torn_tail()) << missing;
    EXPECT_EQ(journal::scan_journal(missing).code(), util::ErrorCode::kNotFound) << missing;
  }
}

// Lines of /proc/self/maps that map `path`.
std::size_t mappings_of(const std::string& path) {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) {
    n += line.size() >= path.size() &&
         line.compare(line.size() - path.size(), path.size(), path) == 0;
  }
  return n;
}

TEST(JournalFraming, ReopenReleasesTheFirstMapping) {
  const std::string first = tmp_path("reopen-first.journal");
  const std::string second = tmp_path("reopen-second.journal");
  for (const std::string& path : {first, second}) {
    journal::JournalWriter writer;
    ASSERT_TRUE(writer.open(path, 1, 2).is_ok());
    ASSERT_TRUE(writer.close().is_ok());
  }
  journal::JournalReader reader;
  ASSERT_TRUE(reader.open(first).is_ok());
  EXPECT_EQ(mappings_of(first), 1u);
  ASSERT_TRUE(reader.open(second).is_ok());
  EXPECT_EQ(mappings_of(first), 0u);
  EXPECT_EQ(mappings_of(second), 1u);
  // A failed open releases the mapping too: no record may view a stale file.
  EXPECT_FALSE(reader.open(tmp_path("reopen-missing.journal")).is_ok());
  EXPECT_EQ(mappings_of(second), 0u);
  EXPECT_TRUE(reader.records().empty());
}

// Resident KiB of the mapping that holds `addr`, from /proc/self/smaps.
std::size_t resident_kib(const void* addr) {
  const auto at = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  bool inside = false;
  for (std::string line; std::getline(smaps, line);) {
    unsigned long long lo = 0;
    unsigned long long hi = 0;
    if (std::sscanf(line.c_str(), "%llx-%llx ", &lo, &hi) == 2) {
      inside = lo <= at && at < hi;
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      return std::stoul(line.substr(4));
    }
  }
  return 0;
}

// A journal larger than the drop-behind step: verifying it leaves only a
// window of the mapping resident, and every record still reads back whole.
TEST(JournalFraming, DropBehindKeepsAWindowAndRecordsReadBack) {
  const std::string path = tmp_path("drop-behind.journal");
  constexpr int kFrames = 24;
  const auto body = [](int i) { return std::string(512 * 1024, static_cast<char>('a' + i)); };
  {
    journal::JournalWriter writer;
    ASSERT_TRUE(writer.open(path, 1, 2).is_ok());
    for (int i = 0; i < kFrames; ++i) {
      util::ByteWriter fields;
      fields.str(body(i));
      ASSERT_TRUE(writer.append(journal::RecordKind::Browse, i, fields).is_ok());
    }
    ASSERT_TRUE(writer.close().is_ok());
  }
  journal::JournalReader reader;
  ASSERT_TRUE(reader.open(path).is_ok());
  const std::size_t file_kib = reader.bytes().size() / 1024;
  EXPECT_GT(file_kib, 12'000u);
  EXPECT_LT(resident_kib(reader.bytes().data()), 6u * 1024) << "of " << file_kib << " KiB";
  ASSERT_EQ(reader.records().size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    util::ByteReader in(reader.records()[static_cast<std::size_t>(i)].fields);
    EXPECT_EQ(in.str(), body(i)) << "record " << i;
  }
}

// --- Rng state capture ------------------------------------------------------

TEST(RngCheckpoint, RestoredStreamContinuesIdentically) {
  sim::Rng rng(12345);
  (void)rng.uniform();
  (void)rng.uniform_int(0, 1000);
  util::ByteWriter w;
  rng.checkpoint(w);
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(rng.uniform());

  sim::Rng restored(999);  // different seed: state must come from the blob
  util::ByteReader in(w.bytes());
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(restored.uniform(), expected[i]);
}

// --- End-to-end record / replay --------------------------------------------

TEST(RecordReplay, JournalingOffIsByteIdentical) {
  const auto config = small_config();
  const auto recorded = scenario::record_run(config, tmp_path("off-equiv.journal"));
  ASSERT_TRUE(recorded.has_value()) << recorded.error();
  const auto baseline = scenario::baseline_run(config);
  EXPECT_EQ(baseline.metrics_csv, recorded.value().metrics_csv);
  EXPECT_EQ(baseline.weblog_csv, recorded.value().weblog_csv);
  EXPECT_EQ(baseline.soc_report, recorded.value().soc_report);
}

TEST(RecordReplay, ReplayReproducesArtifactsByteForByte) {
  for (const std::uint64_t seed : {2024ull, 31337ull}) {
    const auto config = small_config(seed);
    const std::string path = tmp_path("replay-" + std::to_string(seed) + ".journal");
    const auto recorded = scenario::record_run(config, path);
    ASSERT_TRUE(recorded.has_value()) << recorded.error();
    const auto replayed = scenario::replay_run(config, path);
    ASSERT_TRUE(replayed.has_value()) << replayed.error();
    EXPECT_EQ(recorded.value().metrics_csv, replayed.value().metrics_csv) << "seed " << seed;
    EXPECT_EQ(recorded.value().weblog_csv, replayed.value().weblog_csv) << "seed " << seed;
    EXPECT_EQ(recorded.value().soc_report, replayed.value().soc_report) << "seed " << seed;
    // The weblog is non-trivial: the run actually served traffic.
    EXPECT_GT(recorded.value().weblog_csv.size(), 1000u);
  }
}

TEST(RecordReplay, CheckpointResumeEqualsFullReplay) {
  const auto config = small_config();
  const std::string path = tmp_path("resume.journal");
  const auto recorded = scenario::record_run(config, path);
  ASSERT_TRUE(recorded.has_value()) << recorded.error();

  scenario::ReplayOptions from_checkpoint;
  from_checkpoint.from_last_checkpoint = true;
  const auto resumed = scenario::replay_run(config, path, from_checkpoint);
  ASSERT_TRUE(resumed.has_value()) << resumed.error();
  EXPECT_EQ(recorded.value().metrics_csv, resumed.value().metrics_csv);
  EXPECT_EQ(recorded.value().weblog_csv, resumed.value().weblog_csv);
  EXPECT_EQ(recorded.value().soc_report, resumed.value().soc_report);
}

TEST(RecordReplay, JournalBytesArePinned) {
  // Length and CRC-32 of whole recorded journals, graph off and on: the
  // call frames and the embedded checkpoints of the full platform (web log,
  // biometric log, entity graph, ...) must not move by a single byte.
  struct Pin {
    bool graph;
    std::size_t bytes;
    std::uint32_t crc;
  };
  for (const Pin& pin : {Pin{false, 370085u, 0x12ccc598u}, Pin{true, 423920u, 0x1d1f525cu}}) {
    auto config = small_config();
    config.graph.enabled = pin.graph;
    const std::string path = tmp_path(pin.graph ? "pinned-graph.journal" : "pinned-run.journal");
    ASSERT_TRUE(scenario::record_run(config, path).has_value());
    const std::string bytes = slurp(path);
    EXPECT_EQ(bytes.size(), pin.bytes) << "graph " << pin.graph;
    EXPECT_EQ(crc32_bytewise(bytes), pin.crc) << "graph " << pin.graph;

    journal::JournalReader reader;
    ASSERT_TRUE(reader.open(path).is_ok());
    std::size_t checkpoints = 0;
    for (const auto& record : reader.records()) {
      checkpoints += record.kind == journal::RecordKind::Checkpoint ? 1 : 0;
    }
    EXPECT_GE(checkpoints, 2u) << "graph " << pin.graph;
  }
}

TEST(RecordReplay, MismatchedConfigIsRefused) {
  const auto config = small_config();
  const std::string path = tmp_path("refuse.journal");
  ASSERT_TRUE(scenario::record_run(config, path).has_value());

  auto other = config;
  other.attacker_party += 1;
  const auto replayed = scenario::replay_run(other, path);
  ASSERT_FALSE(replayed.has_value());
  EXPECT_EQ(replayed.code(), util::ErrorCode::kCheckpointMismatch);
}

TEST(RecordReplay, ConfigDigestCoversScenarioShape) {
  const auto base = small_config();
  auto changed = base;
  changed.rate_limits[0].limit = 21;
  EXPECT_NE(scenario::config_digest(base), scenario::config_digest(changed));
  EXPECT_EQ(scenario::config_digest(base), scenario::config_digest(small_config()));
}

// --- Shadow re-scoring ------------------------------------------------------

TEST(ShadowRescore, IdenticalConfigYieldsZeroDiffs) {
  const auto config = small_config();
  const std::string path = tmp_path("rescore-identity.journal");
  ASSERT_TRUE(scenario::record_run(config, path).has_value());

  scenario::RescoreCandidate identity;
  identity.name = "identity";
  const auto report = scenario::shadow_rescore(config, path, identity);
  ASSERT_TRUE(report.has_value()) << report.error();
  EXPECT_GT(report.value().requests, 0u);
  EXPECT_EQ(report.value().verdict_changes, 0u);
  EXPECT_EQ(report.value().newly_caught, 0u);
  EXPECT_EQ(report.value().newly_missed, 0u);
  EXPECT_EQ(report.value().newly_blocked_legit, 0u);
  EXPECT_EQ(report.value().newly_allowed_legit, 0u);
}

TEST(ShadowRescore, TighterHoldLimitCatchesAbuseOffline) {
  const auto config = small_config();
  const std::string path = tmp_path("rescore-tight.journal");
  ASSERT_TRUE(scenario::record_run(config, path).has_value());

  scenario::RescoreCandidate tight;
  tight.name = "hold-per-ip 3/h";
  tight.configure_engine = [](mitigate::RuleEngine& engine) {
    engine.add_rate_limit(mitigate::RateLimitSpec{"shadow-hold-per-ip",
                                                  web::Endpoint::HoldReservation,
                                                  mitigate::RateKey::ByIp, 3, sim::kHour});
  };
  const auto report = scenario::shadow_rescore(config, path, tight);
  ASSERT_TRUE(report.has_value()) << report.error();
  EXPECT_GT(report.value().verdict_changes, 0u);
  EXPECT_GT(report.value().newly_caught, 0u);
  // The report renders with its counters in a fixed order.
  const auto text = scenario::render_rescore_report(tight.name, report.value());
  EXPECT_NE(text.find("hold-per-ip 3/h"), std::string::npos);
  EXPECT_NE(text.find("newly caught"), std::string::npos);
}

}  // namespace
}  // namespace fraudsim
