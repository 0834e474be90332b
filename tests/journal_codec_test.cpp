// Journal codec: the bytes of every record kind, replay's outcome checks and
// the frame walk under hostile input.
//
// Every record kind is written once through RecordingJournal and pinned by
// length and CRC-32, then read back field by field. A recorded journal with
// one outcome rewritten (and re-framed with a valid CRC) must fail replay,
// and shadow re-scoring must count a flipped verdict exactly once. Frames
// whose CRC holds but which are no record must fail the open, and seeded
// mutants of the pinned journal must read the same through scan_journal
// and JournalReader.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/journal/recording.hpp"
#include "core/scenario/replay_harness.hpp"
#include "util/hash.hpp"

namespace fraudsim {
namespace {

std::string tmp_path(const std::string& name) { return testing::TempDir() + name; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The journal_test scenario: legit demand, attacker waves, mitigation sweeps
// and two embedded checkpoints inside an 8 h horizon.
scenario::RecordedScenarioConfig small_config() {
  scenario::RecordedScenarioConfig config;
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

// --- Every record kind ------------------------------------------------------

// A context with every optional part set: fingerprint, pointer biometrics
// and a payment token.
app::ClientContext full_context() {
  app::ClientContext ctx;
  ctx.ip = net::IpV4{0xC0A80117u};
  ctx.session = web::SessionId{0x0100'0000'0000'002Aull};
  ctx.fingerprint.browser = fp::Browser::Firefox;
  ctx.fingerprint.browser_version = 121;
  ctx.fingerprint.os = fp::Os::Linux;
  ctx.fingerprint.device = fp::DeviceClass::Tablet;
  ctx.fingerprint.screen_width = 1366;
  ctx.fingerprint.screen_height = 768;
  ctx.fingerprint.timezone_offset_minutes = -300;
  ctx.fingerprint.language = "de-DE";
  ctx.fingerprint.cpu_cores = 6;
  ctx.fingerprint.memory_gb = 4;
  ctx.fingerprint.touch_support = true;
  ctx.fingerprint.plugin_count = 0;
  ctx.fingerprint.canvas_hash = 0x1122334455667788ull;
  ctx.fingerprint.webgl_hash = 0x99AABBCCDDEEFF00ull;
  ctx.fingerprint.fonts_hash = 0x0F1E2D3C4B5A6978ull;
  ctx.fingerprint.webdriver_flag = true;
  ctx.fingerprint.headless_hint = true;
  ctx.actor = web::ActorId{77};
  ctx.captcha_solved = true;
  ctx.loyalty_member = false;
  biometrics::TrajectoryFeatures bio;
  bio.path_efficiency = 0.875;
  bio.mean_speed = 1.25;
  bio.speed_cv = 0.0625;
  bio.mean_curvature = 0.3;
  bio.pause_fraction = 0.125;
  bio.point_count = 48;
  bio.duration_ms = 812.5;
  bio.digest = 0xFEEDFACECAFEBEEFull;
  ctx.pointer_biometrics = bio;
  ctx.payment_token = "tok_visa_4242";
  return ctx;
}

std::vector<airline::Passenger> party() {
  std::vector<airline::Passenger> passengers(2);
  passengers[0] = {"ada", "lovelace", airline::Date{1985, 12, 10}, "ada@example.com"};
  passengers[1] = {"alan", "turing", airline::Date{1992, 6, 23}, "alan@example.com"};
  return passengers;
}

const sms::PhoneNumber kPhone{net::CountryCode('G', 'B'), "7700900123"};
const std::string kBlob = "checkpoint-blob:\x01\x02\x03\xFF tail";

// One call per facade hook, one record per harness hook and a checkpoint
// blob, in RecordKind order.
void write_every_kind(const std::string& path) {
  journal::JournalWriter writer;
  ASSERT_TRUE(writer.open(path, 0x5EED, 0xD16E57).is_ok());
  journal::RecordingJournal recording(writer);
  const app::ClientContext ctx = full_context();
  recording.actor_registered(sim::minutes(1), web::ActorId{77}, app::ActorKind::RingBot);
  recording.on_browse(sim::minutes(2), ctx, web::Endpoint::SeatMap, web::HttpMethod::Post,
                      app::CallStatus::Challenged);
  recording.on_hold(sim::minutes(3), ctx, airline::FlightId{12}, party(),
                    app::HoldResult{app::CallStatus::Ok, "PNR7QX", std::nullopt, true});
  recording.on_quote_fare(sim::minutes(4), ctx, airline::FlightId{12},
                          util::Money::from_cents(-123456));
  recording.on_pay(sim::minutes(5), ctx, "PNR7QX", app::CallStatus::RateLimited);
  recording.on_request_otp(sim::minutes(6), ctx, "acct-9", kPhone,
                           app::OtpResult{app::CallStatus::Ok, "314159"});
  recording.on_verify_otp(sim::minutes(7), ctx, "acct-9", "314159", true);
  recording.on_retrieve_booking(sim::minutes(8), ctx, "PNR7QX",
                                app::Application::BookingView{true, false, true});
  recording.on_boarding_sms(
      sim::minutes(9), ctx, "PNR7QX", kPhone,
      app::BoardingSmsResult{app::CallStatus::BusinessReject,
                             airline::BoardingPassService::SmsResult::PerBookingCapReached});
  recording.on_boarding_email(sim::minutes(10), ctx, "PNR7QX", app::CallStatus::Overloaded);
  recording.expiry_sweep(sim::minutes(11));
  recording.mitigation_sweep(sim::minutes(12));
  recording.controller_fit(sim::minutes(13), sim::hours(-2), sim::hours(6));
  recording.mitigation_action(sim::minutes(14), "block-fingerprint", "fp 0x1122 seen on 9 pnrs");
  recording.checkpoint_blob(sim::minutes(15), kBlob);
  ASSERT_TRUE(recording.status().is_ok());
  ASSERT_TRUE(writer.close().is_ok());
}

void expect_context(const app::ClientContext& got) {
  const app::ClientContext want = full_context();
  EXPECT_EQ(got.ip, want.ip);
  EXPECT_EQ(got.session, want.session);
  EXPECT_TRUE(got.fingerprint == want.fingerprint);
  EXPECT_EQ(got.fingerprint.canonical(), want.fingerprint.canonical());
  EXPECT_EQ(got.actor, want.actor);
  EXPECT_EQ(got.captcha_solved, want.captcha_solved);
  EXPECT_EQ(got.loyalty_member, want.loyalty_member);
  ASSERT_TRUE(got.pointer_biometrics.has_value());
  EXPECT_EQ(got.pointer_biometrics->as_vector(), want.pointer_biometrics->as_vector());
  EXPECT_EQ(got.pointer_biometrics->digest, want.pointer_biometrics->digest);
  EXPECT_EQ(got.payment_token, want.payment_token);
}

TEST(JournalCodec, EveryRecordKindIsPinned) {
  // Length and CRC-32 of the file: no record kind's bytes may move.
  constexpr std::size_t kBytes = 2482;
  constexpr std::uint32_t kCrc = 0x5565d5c4u;

  const std::string path = tmp_path("codec-every-kind.journal");
  write_every_kind(path);
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), kBytes);
  EXPECT_EQ(util::crc32(bytes), kCrc) << std::hex << "crc 0x" << util::crc32(bytes);

  journal::JournalReader reader;
  ASSERT_TRUE(reader.open(path).is_ok());
  EXPECT_EQ(reader.seed(), 0x5EEDu);
  EXPECT_EQ(reader.config_digest(), 0xD16E57u);
  const auto& records = reader.records();
  ASSERT_EQ(records.size(), 15u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(static_cast<int>(records[i].kind),
              static_cast<int>(journal::RecordKind::ActorRegistered) + static_cast<int>(i));
    EXPECT_EQ(records[i].time, sim::minutes(static_cast<std::int64_t>(i) + 1));
  }

  {
    util::ByteReader in(records[0].fields);
    journal::ActorRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(r.id, web::ActorId{77});
    EXPECT_EQ(r.kind, app::ActorKind::RingBot);
  }
  {
    util::ByteReader in(records[1].fields);
    journal::BrowseRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    expect_context(r.ctx);
    EXPECT_EQ(r.endpoint, web::Endpoint::SeatMap);
    EXPECT_EQ(r.method, web::HttpMethod::Post);
    EXPECT_EQ(r.result, app::CallStatus::Challenged);
  }
  {
    util::ByteReader in(records[2].fields);
    journal::HoldRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    expect_context(r.ctx);
    EXPECT_EQ(r.flight, airline::FlightId{12});
    const auto want = party();
    ASSERT_EQ(r.passengers.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(r.passengers[i].first_name, want[i].first_name);
      EXPECT_EQ(r.passengers[i].surname, want[i].surname);
      EXPECT_EQ(r.passengers[i].birthdate, want[i].birthdate);
      EXPECT_EQ(r.passengers[i].email, want[i].email);
    }
    EXPECT_EQ(r.status, app::CallStatus::Ok);
    EXPECT_EQ(r.pnr, "PNR7QX");
    EXPECT_TRUE(r.decoy);
  }
  {
    util::ByteReader in(records[3].fields);
    journal::QuoteFareRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    expect_context(r.ctx);
    EXPECT_EQ(r.flight, airline::FlightId{12});
    EXPECT_EQ(r.fare, util::Money::from_cents(-123456));
  }
  {
    util::ByteReader in(records[4].fields);
    journal::PayRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    expect_context(r.ctx);
    EXPECT_EQ(r.pnr, "PNR7QX");
    EXPECT_EQ(r.result, app::CallStatus::RateLimited);
  }
  {
    util::ByteReader in(records[5].fields);
    journal::RequestOtpRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    expect_context(r.ctx);
    EXPECT_EQ(r.account, "acct-9");
    EXPECT_EQ(r.number, kPhone);
    EXPECT_EQ(r.status, app::CallStatus::Ok);
    EXPECT_EQ(r.code, "314159");
  }
  {
    util::ByteReader in(records[6].fields);
    journal::VerifyOtpRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    expect_context(r.ctx);
    EXPECT_EQ(r.account, "acct-9");
    EXPECT_EQ(r.code, "314159");
    EXPECT_TRUE(r.result);
  }
  {
    util::ByteReader in(records[7].fields);
    journal::RetrieveBookingRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    expect_context(r.ctx);
    EXPECT_EQ(r.pnr, "PNR7QX");
    EXPECT_TRUE(r.found);
    EXPECT_FALSE(r.held);
    EXPECT_TRUE(r.ticketed);
  }
  {
    util::ByteReader in(records[8].fields);
    journal::BoardingSmsRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    expect_context(r.ctx);
    EXPECT_EQ(r.pnr, "PNR7QX");
    EXPECT_EQ(r.number, kPhone);
    EXPECT_EQ(r.status, app::CallStatus::BusinessReject);
    EXPECT_EQ(r.detail, airline::BoardingPassService::SmsResult::PerBookingCapReached);
  }
  {
    util::ByteReader in(records[9].fields);
    journal::BoardingEmailRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    expect_context(r.ctx);
    EXPECT_EQ(r.pnr, "PNR7QX");
    EXPECT_EQ(r.result, app::CallStatus::Overloaded);
  }
  EXPECT_TRUE(records[10].fields.empty());
  EXPECT_TRUE(records[11].fields.empty());
  {
    util::ByteReader in(records[12].fields);
    journal::ControllerFitRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(r.from, sim::hours(-2));
    EXPECT_EQ(r.to, sim::hours(6));
  }
  {
    util::ByteReader in(records[13].fields);
    journal::MitigationActionRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(r.kind, "block-fingerprint");
    EXPECT_EQ(r.detail, "fp 0x1122 seen on 9 pnrs");
  }
  {
    util::ByteReader in(records[14].fields);
    journal::CheckpointRecord r{};
    in(r);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(r.blob, kBlob);
  }
}

// --- Replay checks every recorded outcome -----------------------------------

// A journal as its magic and each frame's payload (kind | time | fields).
std::vector<std::string> payloads_of(const std::string& journal) {
  std::vector<std::string> payloads;
  std::size_t pos = sizeof(journal::kMagic);
  while (pos + 8 <= journal.size()) {
    util::ByteReader head(std::string_view(journal).substr(pos, 8));
    const std::uint32_t len = head.u32();
    payloads.push_back(journal.substr(pos + 8, len));
    pos += 8 + len;
  }
  return payloads;
}

// Frames `payloads` afresh, each with a valid CRC.
std::string assemble(const std::vector<std::string>& payloads) {
  util::ByteWriter out;
  out.raw(std::string_view(journal::kMagic, sizeof(journal::kMagic)));
  for (const std::string& payload : payloads) {
    out.u32(static_cast<std::uint32_t>(payload.size()));
    out.u32(util::crc32(payload));
    out.raw(payload);
  }
  return out.take();
}

constexpr std::size_t kPrefix = 9;  // u8 kind | i64 time

// Rewrites one recorded outcome inside a payload of its kind; false when
// this record cannot carry the rewrite (the caller tries the next one).
struct Tamper {
  journal::RecordKind kind;
  std::function<bool(std::string&)> rewrite;
  bool flips_to_denial = false;  // a served verdict now recorded as denied
};

char byte_of(app::CallStatus status) { return static_cast<char>(status); }

std::vector<Tamper> tampers() {
  using journal::RecordKind;
  const auto served_to_blocked = [](std::string& p) {
    if (p.back() != byte_of(app::CallStatus::Ok)) return false;
    p.back() = byte_of(app::CallStatus::Blocked);
    return true;
  };
  const auto flip_last_bool = [](std::string& p) {
    p.back() = p.back() == 0 ? 1 : 0;
    return true;
  };
  return {
      // The actor id the registry handed out.
      {RecordKind::ActorRegistered,
       [](std::string& p) {
         p[kPrefix] = static_cast<char>(p[kPrefix] ^ 0x40);
         return true;
       }},
      {RecordKind::Browse, served_to_blocked, true},
      {RecordKind::Hold, flip_last_bool},  // decoy
      // The fare's low byte.
      {RecordKind::QuoteFare,
       [](std::string& p) {
         p[p.size() - 8] = static_cast<char>(p[p.size() - 8] ^ 1);
         return true;
       }},
      {RecordKind::Pay, served_to_blocked, true},
      // The last digit of an issued code (an empty code ends in a 0 length byte).
      {RecordKind::RequestOtp,
       [](std::string& p) {
         if (p.back() == 0) return false;
         p.back() = static_cast<char>(p.back() ^ 1);
         return true;
       }},
      {RecordKind::VerifyOtp, flip_last_bool},
      {RecordKind::RetrieveBooking, flip_last_bool},  // ticketed
      // The SMS detail.
      {RecordKind::BoardingSms,
       [](std::string& p) {
         p.back() = static_cast<char>((p.back() + 1) % 5);
         return true;
       }},
      {RecordKind::BoardingEmail, served_to_blocked, true},
  };
}

TEST(JournalCodec, ReplayCatchesEveryTamperedOutcome) {
  const auto config = small_config();
  const std::string path = tmp_path("codec-recorded.journal");
  ASSERT_TRUE(scenario::record_run(config, path).has_value());
  const std::vector<std::string> recorded = payloads_of(slurp(path));
  ASSERT_GT(recorded.size(), 100u);

  std::size_t kinds_tampered = 0;
  for (const Tamper& tamper : tampers()) {
    const std::string label = journal::to_string(tamper.kind);
    std::vector<std::string> payloads = recorded;
    bool tampered = false;
    for (std::string& payload : payloads) {
      if (static_cast<journal::RecordKind>(payload[0]) == tamper.kind && tamper.rewrite(payload)) {
        tampered = true;
        break;
      }
    }
    if (!tampered) continue;  // no record of this kind carries the rewrite
    ++kinds_tampered;
    const std::string tampered_path = tmp_path("codec-tampered-" + label + ".journal");
    spit(tampered_path, assemble(payloads));

    const auto replayed = scenario::replay_run(config, tampered_path);
    ASSERT_FALSE(replayed.has_value()) << label;
    EXPECT_EQ(replayed.code(), util::ErrorCode::kCheckpointMismatch)
        << label << ": " << replayed.error();

    if (tamper.flips_to_denial) {
      scenario::RescoreCandidate identity;
      identity.name = "identity";
      const auto report = scenario::shadow_rescore(config, tampered_path, identity);
      ASSERT_TRUE(report.has_value()) << label << ": " << report.error();
      EXPECT_EQ(report.value().verdict_changes, 1u) << label;
    }
  }
  // Every outcome-bearing kind the scenario records (it retrieves no booking).
  EXPECT_EQ(kinds_tampered, 9u);
}

// --- Hostile frames ---------------------------------------------------------

std::string make_payload(journal::RecordKind kind, const util::ByteWriter& fields) {
  util::ByteWriter out;
  out.u8(static_cast<std::uint8_t>(kind));
  out.i64(sim::minutes(5));
  out.raw(fields.bytes());
  return out.take();
}

TEST(JournalCodec, ChecksummedFrameThatIsNoRecordIsCorrupt) {
  const std::string path = tmp_path("codec-every-kind-base.journal");
  write_every_kind(path);
  const std::vector<std::string> base = payloads_of(slurp(path));

  util::ByteWriter header;
  header.u32(journal::kFormatVersion);
  header.u64(0x5EED);
  header.u64(0xD16E57);
  util::ByteWriter empty;
  const std::pair<const char*, std::string> bad[] = {
      {"kind 0", make_payload(static_cast<journal::RecordKind>(0), empty)},
      {"kind 200", make_payload(static_cast<journal::RecordKind>(200), empty)},
      {"kind 17", make_payload(static_cast<journal::RecordKind>(17), empty)},
      {"second header", make_payload(journal::RecordKind::Header, header)},
      {"short payload", std::string(4, '\x03')},
  };
  for (const auto& [label, frame] : bad) {
    // Mid-file, and as the final frame: a frame whose CRC holds was written
    // whole, so it is no torn tail wherever it sits.
    for (const std::size_t at : {std::size_t{3}, base.size()}) {
      std::vector<std::string> payloads = base;
      payloads.insert(payloads.begin() + static_cast<std::ptrdiff_t>(at), frame);
      const std::string bad_path = tmp_path("codec-hostile.journal");
      spit(bad_path, assemble(payloads));

      journal::JournalReader reader;
      const auto status = reader.open(bad_path);
      ASSERT_FALSE(status.is_ok()) << label << " at " << at;
      EXPECT_EQ(status.code(), util::ErrorCode::kJournalCorrupt) << label << " at " << at;
      const auto scan = journal::scan_journal(bad_path);
      ASSERT_TRUE(scan.has_value()) << label << " at " << at;
      EXPECT_TRUE(scan.value().corrupt_mid_file) << label << " at " << at;
      EXPECT_FALSE(scan.value().torn_tail) << label << " at " << at;
      EXPECT_EQ(scan.value().frames, at) << label << " at " << at;
    }
  }
}

// Reads `record` as `R`, its kind's field list; true when every read stayed
// in bounds.
template <class R>
bool reads_as(const journal::Record& record) {
  util::ByteReader in(record.fields);
  R r{};
  in(r);
  return in.ok();
}

bool decodes(const journal::Record& record) {
  using K = journal::RecordKind;
  switch (record.kind) {
    case K::ActorRegistered:
      return reads_as<journal::ActorRecord<>>(record);
    case K::Browse:
      return reads_as<journal::BrowseRecord<>>(record);
    case K::Hold:
      return reads_as<journal::HoldRecord<>>(record);
    case K::QuoteFare:
      return reads_as<journal::QuoteFareRecord<>>(record);
    case K::Pay:
      return reads_as<journal::PayRecord<>>(record);
    case K::RequestOtp:
      return reads_as<journal::RequestOtpRecord<>>(record);
    case K::VerifyOtp:
      return reads_as<journal::VerifyOtpRecord<>>(record);
    case K::RetrieveBooking:
      return reads_as<journal::RetrieveBookingRecord<>>(record);
    case K::BoardingSms:
      return reads_as<journal::BoardingSmsRecord<>>(record);
    case K::BoardingEmail:
      return reads_as<journal::BoardingEmailRecord<>>(record);
    case K::ControllerFit:
      return reads_as<journal::ControllerFitRecord<>>(record);
    case K::MitigationAction:
      return reads_as<journal::MitigationActionRecord<>>(record);
    case K::Checkpoint:
      return reads_as<journal::CheckpointRecord>(record);
    case K::ExpirySweep:
    case K::MitigationSweep:
    case K::Header:
      return true;
  }
  return false;
}

TEST(JournalCodec, MutantsReadAlikeThroughScanAndReader) {
  const std::string base_path = tmp_path("codec-mutant-base.journal");
  write_every_kind(base_path);
  const std::string base = slurp(base_path);
  const std::vector<std::string> frames = payloads_of(base);
  const std::string path = tmp_path("codec-mutant.journal");

  std::size_t opened = 0;
  std::size_t rejected = 0;
  std::size_t decoded = 0;
  std::size_t undecodable = 0;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const auto draw = [i](std::uint64_t salt, std::size_t n) {
      return static_cast<std::size_t>(util::splitmix64(i * 8 + salt) % n);
    };
    std::string mutant = base;
    switch (i % 4) {
      case 0:  // truncate
        mutant.resize(draw(0, base.size()));
        break;
      case 1:  // flip one bit
        mutant[draw(0, base.size())] ^= static_cast<char>(1 << draw(1, 8));
        break;
      case 2:  // splice a copied span of the file in elsewhere
        mutant.insert(draw(0, base.size()), base.substr(draw(1, base.size()), 1 + draw(2, 64)));
        break;
      default: {  // edit one payload byte and re-frame with valid CRCs
        std::vector<std::string> payloads = frames;
        std::string& payload = payloads[draw(0, payloads.size())];
        payload[draw(1, payload.size())] = static_cast<char>(draw(2, 256));
        mutant = assemble(payloads);
        break;
      }
    }
    spit(path, mutant);

    const auto scan = journal::scan_journal(path);
    journal::JournalReader reader;
    const auto status = reader.open(path);
    if (!scan.has_value()) {  // no journal at all: both refuse it alike
      ASSERT_FALSE(status.is_ok()) << "mutant " << i;
      EXPECT_EQ(status.code(), scan.code()) << "mutant " << i;
      continue;
    }
    const journal::JournalScan& frames_seen = scan.value();
    if (!status.is_ok()) {
      ++rejected;
      EXPECT_EQ(status.code(), util::ErrorCode::kJournalCorrupt) << "mutant " << i;
      EXPECT_TRUE(frames_seen.corrupt_mid_file || !frames_seen.has_header) << "mutant " << i;
      continue;
    }
    ++opened;
    EXPECT_FALSE(frames_seen.corrupt_mid_file) << "mutant " << i;
    EXPECT_EQ(frames_seen.torn_tail, reader.recovered_torn_tail()) << "mutant " << i;
    EXPECT_EQ(frames_seen.frames, reader.records().size() + 1) << "mutant " << i;
    for (const auto& record : reader.records()) decodes(record) ? ++decoded : ++undecodable;
  }
  EXPECT_GT(opened, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(undecodable, 0u);
}

}  // namespace
}  // namespace fraudsim
