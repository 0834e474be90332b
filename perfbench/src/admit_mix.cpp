// admit_mix: a closed loop of facade calls on one thread.
//
// The benchmark generates the traffic itself: a client population (5% of it
// naive bots, some of those pre-blocklisted to the honeypot) issuing a fixed
// mix of browse / quote_fare / hold / pay / request_otp / boarding-SMS calls
// at 32 calls per simulated second, with an expiry sweep every simulated
// minute. The platform runs the paper's §V posture behind the calls: every
// rate-limit key, SuspiciousOnly challenges, honeypot redirection and overload
// control sized not to shed. Every call is journalled to a file; the entity
// graph, detection and the sharded engine are not involved.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/invariant/invariant.hpp"
#include "core/journal/recording.hpp"
#include "core/scenario/env.hpp"
#include "decorators.hpp"
#include "fingerprint/population.hpp"
#include "workload/names.hpp"

namespace perfbench {
namespace {

using namespace fraudsim;

enum Kind : std::uint8_t { kBrowse, kQuote, kHold, kPay, kOtp, kBoardingSms, kKinds };
constexpr const char* kKindName[kKinds] = {"browse",  "quote_fare",  "hold",
                                           "pay",     "request_otp", "boarding_sms"};
constexpr const char* kCallSpan[kKinds] = {"app.call.browse",       "app.call.quote_fare",
                                           "app.call.hold",         "app.call.pay",
                                           "app.call.request_otp",  "app.call.boarding_sms"};
// Call mix in percent: browse 60, quote 12, hold 10, pay 6, otp 6, boarding SMS 6.
constexpr int kMixPercent[kKinds] = {60, 12, 10, 6, 6, 6};

constexpr int kCallsPerSimSecond = 32;
// Each repetition is timed in chunks of consecutive calls; throughput and
// latency come from the run made of every chunk's fastest repetition.
constexpr std::size_t kChunk = 16384;
constexpr int kFlights = 400;
constexpr int kCapacity = 200;

struct Sizes {
  std::size_t calls;
  std::size_t clients;
  std::uint32_t ips;
};

struct Client {
  app::ClientContext ctx;
  bool bot = false;
  std::string account;
  sms::PhoneNumber phone;
};

struct Call {
  Kind kind = kBrowse;
  std::uint32_t client = 0;
  web::Endpoint endpoint = web::Endpoint::Home;
  std::uint32_t flight = 0;
  std::vector<airline::Passenger> party;
};

// Everything one repetition needs, built from the seed alone.
struct Platform {
  std::vector<Client> clients;
  std::vector<Call> calls;
  std::unique_ptr<scenario::Env> env;
  std::vector<airline::FlightId> flights;
};

std::unique_ptr<Platform> build(std::uint64_t seed, const Sizes& sizes) {
  auto p = std::make_unique<Platform>();
  sim::Rng rng(seed);
  sim::Rng pop_rng = rng.fork("clients");
  const fp::PopulationModel population;
  // Bots share a small block of exits; humans spread over the rest.
  const std::uint32_t bot_ips = std::max<std::uint32_t>(8, sizes.ips / 256);
  p->clients.resize(sizes.clients);
  for (std::size_t i = 0; i < sizes.clients; ++i) {
    Client& c = p->clients[i];
    c.bot = pop_rng.bernoulli(0.05);
    c.ctx.fingerprint = c.bot ? population.sample_naive_bot(pop_rng) : population.sample(pop_rng);
    const auto ip_index = static_cast<std::uint32_t>(
        c.bot ? pop_rng.uniform_int(0, bot_ips - 1)
              : pop_rng.uniform_int(bot_ips, std::max(bot_ips, sizes.ips - 1)));
    c.ctx.ip = net::IpV4{0x0B000000u + ip_index};
    c.ctx.session = web::SessionId{i + 1};
    c.ctx.actor = web::ActorId{i + 1};
    c.account = "acct-" + std::to_string(i);
    c.phone = sms::PhoneNumber{net::CountryCode{'U', 'S'}, pop_rng.random_digits(10)};
  }

  sim::Rng call_rng = rng.fork("calls");
  constexpr web::Endpoint kBrowsePages[] = {web::Endpoint::Home,        web::Endpoint::SearchFlights,
                                            web::Endpoint::FlightDetails, web::Endpoint::SeatMap,
                                            web::Endpoint::ManageBooking, web::Endpoint::StaticAsset};
  p->calls.resize(sizes.calls);
  for (Call& call : p->calls) {
    call.client = static_cast<std::uint32_t>(
        call_rng.uniform_int(0, static_cast<std::int64_t>(sizes.clients) - 1));
    int roll = static_cast<int>(call_rng.uniform_int(0, 99));
    int k = 0;
    while (roll >= kMixPercent[k]) roll -= kMixPercent[k++];
    call.kind = static_cast<Kind>(k);
    call.flight = static_cast<std::uint32_t>(call_rng.uniform_int(0, kFlights - 1));
    if (call.kind == kBrowse) call.endpoint = kBrowsePages[call_rng.uniform_int(0, 5)];
    if (call.kind == kHold) {
      const bool bot = p->clients[call.client].bot;
      const int nip = bot ? 9 : static_cast<int>(call_rng.uniform_int(1, 4));
      call.party = workload::random_party(call_rng, nip);
    }
  }

  scenario::EnvConfig config;
  config.seed = seed;
  config.application.honeypot_enabled = true;
  // Overload control on, sized so the modeled servers stay far from
  // saturation at 32 calls per simulated second: nothing may shed.
  config.application.overload.enabled = true;
  config.application.overload.servers = 64;
  p->env = std::make_unique<scenario::Env>(config);
  scenario::Env& env = *p->env;
  p->flights = env.add_flights("BX", kFlights, kCapacity, sim::days(30));

  mitigate::RuleEngine& engine = env.engine;
  engine.add_rate_limit({"global", std::nullopt, mitigate::RateKey::Global, 1u << 30, sim::kHour});
  engine.add_rate_limit({"ip", std::nullopt, mitigate::RateKey::ByIp, 600, sim::kHour});
  engine.add_rate_limit({"session", std::nullopt, mitigate::RateKey::BySession, 120, sim::kHour});
  engine.add_rate_limit({"fp", std::nullopt, mitigate::RateKey::ByFingerprint, 600, sim::kHour});
  engine.add_rate_limit({"booking", web::Endpoint::BoardingPassSms, mitigate::RateKey::ByBookingRef,
                         4, sim::kDay});
  engine.set_challenge_mode(mitigate::ChallengeMode::SuspiciousOnly);
  engine.set_blocklist_action(app::PolicyAction::Honeypot);
  for (std::size_t i = 0; i < p->clients.size(); i += 3) {
    if (p->clients[i].bot) engine.blocklist().block(p->clients[i].ctx.fingerprint.hash(), 0, "seed");
  }
  return p;
}

// Outcome of one repetition.
struct Rep {
  double setup_s = 0;
  SlicedRun timing;  // the call loop, in chunks of kChunk calls
  std::uint64_t digest = 0;
  std::uint64_t calls = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t frames_read = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t holds_ok = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t denials = 0;
  std::uint64_t shed = 0;
  std::uint64_t violations = 0;
  bool journal_ok = false;
  bool frames_match = false;
  bool tracer_balanced = true;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t overload_shed = 0;
};

Rep run_rep(const Options& options, const Sizes& sizes, Tracer* tracer) {
  Rep rep;
  const std::int64_t s0 = now_ns();
  auto p = build(options.seed, sizes);
  scenario::Env& env = *p->env;

  const std::string journal_path = options.out_dir + "/admit_mix.fsj";
  journal::JournalWriter writer;
  const util::Status opened = writer.open(journal_path, options.seed, 0);
  journal::RecordingJournal recording(writer);
  Digest digest;
  TimedPolicy policy(env.engine, tracer);
  TimedJournal journal(recording, "journal.append", tracer, &digest);
  env.app.set_policy(&policy);
  env.app.set_journal(&journal);

  invariant::InvariantRegistry invariants;
  invariant::register_platform_invariants(invariants, env.app, &env.engine);
  rep.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  std::vector<std::string> last_pnr(p->clients.size());
  rep.timing.latency_us.reserve(p->calls.size());
  std::int64_t chunk_t0 = now_ns();
  for (std::size_t i = 0; i < p->calls.size(); ++i) {
    if (i > 0 && i % kChunk == 0) {
      const std::int64_t t = now_ns();
      rep.timing.end_slice(static_cast<double>(t - chunk_t0));
      chunk_t0 = t;
    }
    if (i % kCallsPerSimSecond == 0) {
      const sim::SimTime t = static_cast<sim::SimTime>(i / kCallsPerSimSecond) * sim::kSecond;
      env.sim.run_until(t);
      if (t > 0 && t % sim::kMinute == 0) {
        recording.expiry_sweep(env.sim.now());
        ++rep.sweeps;
        const Scope sweep(tracer, "airline.expiry_sweep");
        env.apply_expiry_sweep();
      }
    }
    Call& call = p->calls[i];
    Client& client = p->clients[call.client];
    if (tracer != nullptr) tracer->set_request(i + 1);
    const std::int64_t t0 = now_ns();
    {
      const Scope span(tracer, kCallSpan[call.kind]);
      switch (call.kind) {
        case kBrowse:
          (void)env.app.browse(client.ctx, call.endpoint);
          break;
        case kQuote:
          (void)env.app.quote_fare(client.ctx, p->flights[call.flight]);
          break;
        case kHold: {
          auto result = env.app.hold(client.ctx, p->flights[call.flight], std::move(call.party));
          if (result.status == app::CallStatus::Ok) last_pnr[call.client] = std::move(result.pnr);
          break;
        }
        case kPay:
          (void)env.app.pay(client.ctx, last_pnr[call.client]);
          break;
        case kOtp:
          (void)env.app.request_otp(client.ctx, client.account, client.phone);
          break;
        case kBoardingSms:
          (void)env.app.request_boarding_sms(client.ctx, last_pnr[call.client], client.phone);
          break;
        case kKinds:
          break;
      }
    }
    rep.timing.latency_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  rep.timing.end_slice(static_cast<double>(now_ns() - chunk_t0));
  if (tracer != nullptr) tracer->set_request(0);

  invariants.check_all(env.sim.now());
  rep.violations = invariants.violations().size();
  rep.calls = p->calls.size();
  rep.digest = digest.h;
  rep.holds_ok = journal.holds_ok();
  rep.evaluations = policy.evaluations();
  rep.denials = policy.denials();
  rep.shed = env.app.stats().shed;
  for (const char* cls : {"priority", "anonymous"}) {
    const std::string prefix = std::string("overload.") + cls;
    rep.offered += env.app.metrics().counter_value(prefix + ".offered");
    rep.admitted += env.app.metrics().counter_value(prefix + ".admitted");
    rep.overload_shed += env.app.metrics().counter_value(prefix + ".shed_queue") +
                         env.app.metrics().counter_value(prefix + ".shed_fail_fast");
  }

  const util::Status closed = writer.close();
  rep.journal_ok = opened.is_ok() && closed.is_ok() && recording.status().is_ok();
  {
    const Scope read(tracer, "journal.read");
    journal::JournalReader reader;
    rep.journal_ok = reader.open(journal_path).is_ok() && rep.journal_ok;
    rep.frames_read = reader.records().size();
  }
  rep.frames_match = rep.frames_read == journal.calls() + rep.sweeps && journal.calls() == rep.calls;
  std::error_code ec;
  rep.journal_bytes = std::filesystem::file_size(journal_path, ec);
  std::filesystem::remove(journal_path, ec);
  if (tracer != nullptr) rep.tracer_balanced = tracer->balanced();
  return rep;
}

double span_median_us(const Tracer& tracer, const char* name) {
  std::vector<double> d;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == name) d.push_back(static_cast<double>(s.end - s.start) / 1e3);
  }
  return median(std::move(d));
}

}  // namespace

Result run_admit_mix(const Options& options) {
  const Sizes sizes = options.smoke ? Sizes{20'000, 5'000, 2'000} : Sizes{200'000, 50'000, 20'000};
  Result r;
  // No warm-up repetition: a cold first pass only loses the fastest-chunk
  // choice to the later ones.
  std::vector<Rep> reps;
  const int n = repeat_for(options.seconds, 3, 64,
                           [&](int) { reps.push_back(run_rep(options, sizes, nullptr)); });

  std::vector<double> setup;
  std::vector<double> throughput;  // per repetition, for the report
  std::vector<const SlicedRun*> measured;
  bool digests_equal = true;
  bool journal_ok = true;
  bool frames_match = true;
  std::uint64_t violations = 0;
  std::uint64_t shed = 0;
  for (const Rep& rep : reps) {
    shed += rep.shed;
    digests_equal = digests_equal && rep.digest == reps.front().digest;
    journal_ok = journal_ok && rep.journal_ok;
    frames_match = frames_match && rep.frames_match;
    violations += rep.violations;
    r.attempted += rep.calls;
    r.failed += rep.shed + rep.violations + (rep.journal_ok ? 0 : 1);
    setup.push_back(rep.setup_s);
    throughput.push_back(static_cast<double>(rep.calls) / rep.timing.seconds());
    measured.push_back(&rep.timing);
  }
  const SlicedRun fastest = fastest_slices(measured);

  if (options.trace) {
    Tracer tracer;
    const Rep traced = run_rep(options, sizes, &tracer);
    digests_equal = digests_equal && traced.digest == reps.front().digest;
    journal_ok = journal_ok && traced.journal_ok;
    frames_match = frames_match && traced.frames_match;
    violations += traced.violations;
    shed += traced.shed;
    const auto layers = tracer.layer_times();
    const auto mean_ns = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() || it->second.calls == 0
                 ? 0.0
                 : static_cast<double>(it->second.total_ns) / static_cast<double>(it->second.calls);
    };
    std::int64_t call_self = 0;
    std::uint64_t call_count = 0;
    for (int k = 0; k < kKinds; ++k) {
      r.metrics[std::string("app.call_p50_us.") + kKindName[k]] =
          span_median_us(tracer, kCallSpan[k]);
      if (const auto it = layers.find(kCallSpan[k]); it != layers.end()) {
        call_self += it->second.self_ns;
        call_count += it->second.calls;
      }
    }
    r.metrics["app.self_ns"] =
        call_count == 0 ? 0.0 : static_cast<double>(call_self) / static_cast<double>(call_count);
    r.metrics["mitigate.evaluate_ns"] = mean_ns("mitigate.evaluate");
    r.metrics["mitigate.evaluations"] = static_cast<double>(traced.evaluations);
    r.metrics["mitigate.deny_ratio"] =
        static_cast<double>(traced.denials) / static_cast<double>(std::max<std::uint64_t>(1, traced.evaluations));
    r.metrics["overload.offered"] = static_cast<double>(traced.offered);
    r.metrics["overload.admitted"] = static_cast<double>(traced.admitted);
    r.metrics["overload.shed"] = static_cast<double>(traced.overload_shed);
    r.metrics["airline.expiry_sweep_ms"] = mean_ns("airline.expiry_sweep") / 1e6;
    r.metrics["airline.holds_ok"] = static_cast<double>(traced.holds_ok);
    r.metrics["journal.append_ns"] = mean_ns("journal.append");
    r.metrics["journal.bytes_per_call"] =
        static_cast<double>(traced.journal_bytes) / static_cast<double>(traced.frames_read + 1);
    r.metrics["journal.read_ms"] = mean_ns("journal.read") / 1e6;
    r.metrics["journal.frames"] = static_cast<double>(traced.frames_read);

    std::vector<double> loops;
    for (const SlicedRun* run : measured) loops.push_back(run->seconds());
    r.metrics["trace.overhead"] = traced.timing.seconds() / median(loops) - 1.0;
    std::int64_t top = 0;
    for (const Span& s : tracer.spans()) {
      if (s.parent < 0 && std::string_view(s.name) != "journal.read") top += s.end - s.start;
    }
    r.metrics["trace.named_share"] = static_cast<double>(top) / (traced.timing.seconds() * 1e9);
    r.metrics["trace.spans"] = static_cast<double>(tracer.spans().size());
    r.check("tracer spans balanced", traced.tracer_balanced);
    r.check("span dump written",
            tracer.dump(options.out_dir + "/spans-admit_mix.jsonl", "admit_mix"));
  } else {
    r.metrics["setup_s"] = median(setup);
    r.metrics["ops_per_sec"] = static_cast<double>(fastest.latency_us.size()) / fastest.seconds();
    r.metrics["op_p50_us"] = percentile(fastest.latency_us, 50);
    r.metrics["op_p99_us"] = percentile(fastest.latency_us, 99);
  }

  r.check("outcome digest equal on every repetition", digests_equal);
  r.check("journal status ok", journal_ok);
  r.check("journal frames == calls + expiry-sweep records", frames_match);
  r.check("zero platform invariant violations", violations == 0);
  r.check("nothing shed by overload control", shed == 0);
  r.facts["repetitions"] = std::to_string(n);
  r.facts["ops_per_sec_by_repetition"] = join(throughput);
  r.facts["calls_per_repetition"] = std::to_string(sizes.calls);
  r.facts["clients"] = std::to_string(sizes.clients);
  r.facts["ips"] = std::to_string(sizes.ips);
  r.facts["latency_samples"] = std::to_string(fastest.latency_us.size());
  r.facts["chunks"] = std::to_string(fastest.slice_ns.size()) + " of " + std::to_string(kChunk) + " calls";
  r.facts["threads"] = "1";
  r.facts["ops"] = "facade calls";
  return r;
}

}  // namespace perfbench
