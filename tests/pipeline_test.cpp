// DetectionPipeline wiring tests: baseline fitting, the §V detectors flowing
// through the pipeline, scoring reports, and the SOC report rendering.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "attack/scraper.hpp"
#include "attack/seat_spin.hpp"
#include "core/detect/pipeline.hpp"
#include "core/scenario/env.hpp"
#include "core/scenario/soc_report.hpp"

namespace fraudsim {
namespace {

struct MixedWorld {
  scenario::Env env;
  std::unique_ptr<attack::SeatSpinBot> bot;
  std::unique_ptr<attack::ScraperBot> scraper;

  explicit MixedWorld(std::uint64_t seed) : env(make_config(seed)) {
    env.add_flights("A", 15, 150, sim::days(30));
    const auto target = env.app.add_flight("A", 321, 80, sim::days(8));
    attack::SeatSpinConfig bot_config;
    bot_config.target = target;
    bot = std::make_unique<attack::SeatSpinBot>(env.app, env.actors, env.residential,
                                                env.population, bot_config,
                                                env.rng.fork("bot"));
    attack::ScraperConfig scraper_config;
    scraper_config.sessions = 4;
    scraper_config.session_gap = sim::hours(10);
    scraper = std::make_unique<attack::ScraperBot>(env.app, env.actors, env.datacenter,
                                                   env.population, scraper_config,
                                                   env.rng.fork("scraper"));
    env.start_background(sim::days(2));
    env.sim.schedule_at(sim::days(1), [this] {
      bot->start();
      scraper->start();
    });
    env.run_until(sim::days(2));
  }

  static scenario::EnvConfig make_config(std::uint64_t seed) {
    scenario::EnvConfig config;
    config.seed = seed;
    config.legit.booking_sessions_per_hour = 12;
    config.legit.browse_sessions_per_hour = 5;
    config.legit.otp_logins_per_hour = 4;
    return config;
  }
};

bool actor_flagged(const detect::PipelineResult& result, const std::string& prefix,
                   web::ActorId actor) {
  for (const auto& alert : result.alerts.alerts()) {
    if (alert.detector.rfind(prefix, 0) == 0 && alert.actor == actor) return true;
  }
  return false;
}

const MixedWorld& world() {
  static MixedWorld w(4242);
  return w;
}

TEST(Pipeline, BiometricAlertsFlowThrough) {
  detect::DetectionPipeline pipeline;
  const auto result =
      pipeline.run(world().env.app, world().env.actors, sim::days(1), sim::days(2));
  // The scripted bot's pointer telemetry is flagged; no human sample is.
  EXPECT_TRUE(actor_flagged(result, "biometric.pointer", world().bot->actor()));
  const auto* report = result.report_for("biometric.pointer");
  ASSERT_NE(report, nullptr);
  EXPECT_GT(report->alerts, 0u);
  EXPECT_GT(report->score.confusion.precision(), 0.95);
}

TEST(Pipeline, BiometricsCanBeDisabled) {
  detect::PipelineConfig config;
  config.biometrics_enabled = false;
  detect::DetectionPipeline pipeline(config);
  const auto result =
      pipeline.run(world().env.app, world().env.actors, sim::days(1), sim::days(2));
  EXPECT_TRUE(result.alerts.by_detector("biometric.pointer").empty());
  EXPECT_EQ(result.report_for("biometric.pointer"), nullptr);
}

TEST(Pipeline, NavigationRequiresFit) {
  detect::DetectionPipeline pipeline;
  auto result = pipeline.run(world().env.app, world().env.actors, sim::days(1), sim::days(2));
  EXPECT_TRUE(result.alerts.by_detector("behavior.navigation").empty());

  pipeline.fit_navigation(world().env.app, 0, sim::days(1));
  result = pipeline.run(world().env.app, world().env.actors, sim::days(1), sim::days(2));
  EXPECT_TRUE(actor_flagged(result, "behavior.navigation", world().bot->actor()));
}

TEST(Pipeline, IpReputationRequiresGeo) {
  detect::DetectionPipeline pipeline;
  auto result = pipeline.run(world().env.app, world().env.actors, sim::days(1), sim::days(2));
  EXPECT_TRUE(result.alerts.by_detector("ip.reputation").empty());

  pipeline.enable_ip_reputation(world().env.geo);
  result = pipeline.run(world().env.app, world().env.actors, sim::days(1), sim::days(2));
  EXPECT_TRUE(actor_flagged(result, "ip.reputation", world().scraper->actor()));
  EXPECT_FALSE(actor_flagged(result, "ip.reputation", world().bot->actor()));
}

TEST(Pipeline, ReportForUnknownDetectorIsNull) {
  detect::DetectionPipeline pipeline;
  const auto result =
      pipeline.run(world().env.app, world().env.actors, sim::days(1), sim::days(2));
  EXPECT_EQ(result.report_for("no.such.detector"), nullptr);
}

TEST(Pipeline, ReportsAreScoredAgainstGroundTruth) {
  detect::DetectionPipeline pipeline;
  pipeline.fit_nip_baseline(world().env.app, 0, sim::days(1));
  const auto result =
      pipeline.run(world().env.app, world().env.actors, sim::days(1), sim::days(2));
  for (const auto& report : result.reports) {
    EXPECT_GT(report.alerts, 0u) << report.detector;
    EXPECT_EQ(report.score.confusion.total(),
              detect::actors_of(result.sessions).size())
        << report.detector;
  }
}

// Scoring as it was before one pass counted per family: every alert copied
// into a per-detector map, flagged actors collected from the copies.
std::vector<detect::DetectorReport> oracle_reports(const detect::PipelineResult& result,
                                                   const app::ActorRegistry& registry) {
  std::map<std::string, std::vector<detect::Alert>> by_detector;
  for (const auto& a : result.alerts.alerts()) by_detector[a.detector].push_back(a);
  const auto universe = detect::actors_of(result.sessions);
  std::vector<detect::DetectorReport> reports;
  for (const auto& [detector, alerts] : by_detector) {
    std::unordered_set<web::ActorId> flagged;
    for (const auto& a : alerts) {
      if (a.actor) flagged.insert(*a.actor);
    }
    detect::DetectorReport report;
    report.detector = detector;
    report.alerts = alerts.size();
    report.score =
        detect::score_actors(flagged, universe, registry, detect::TruthCriterion::Abuser);
    reports.push_back(std::move(report));
  }
  return reports;
}

TEST(Pipeline, SessionsAndReportsMatchCopyingOracle) {
  detect::DetectionPipeline pipeline;
  pipeline.fit_nip_baseline(world().env.app, 0, sim::days(1));
  pipeline.enable_ip_reputation(world().env.geo);
  const auto& app = world().env.app;
  const auto result = pipeline.run(app, world().env.actors, sim::days(1), sim::days(2));

  // The window is sessionized in place, as if copied out of the log first.
  const auto copied = web::Sessionizer().sessionize(app.weblog().range(sim::days(1), sim::days(2)));
  ASSERT_EQ(result.sessions.size(), copied.size());
  for (std::size_t i = 0; i < copied.size(); ++i) {
    EXPECT_EQ(result.sessions[i].id, copied[i].id);
    ASSERT_EQ(result.sessions[i].requests.size(), copied[i].requests.size());
    for (std::size_t k = 0; k < copied[i].requests.size(); ++k) {
      EXPECT_EQ(result.sessions[i].requests[k].id, copied[i].requests[k].id);
    }
  }

  const auto want = oracle_reports(result, world().env.actors);
  ASSERT_EQ(result.reports.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& got = result.reports[i];
    EXPECT_EQ(got.detector, want[i].detector);
    EXPECT_EQ(got.alerts, want[i].alerts) << want[i].detector;
    EXPECT_EQ(got.score.confusion.tp, want[i].score.confusion.tp) << want[i].detector;
    EXPECT_EQ(got.score.confusion.fp, want[i].score.confusion.fp) << want[i].detector;
    EXPECT_EQ(got.score.confusion.tn, want[i].score.confusion.tn) << want[i].detector;
    EXPECT_EQ(got.score.confusion.fn, want[i].score.confusion.fn) << want[i].detector;
    EXPECT_EQ(got.score.missed, want[i].score.missed) << want[i].detector;
    EXPECT_EQ(got.score.false_alarms, want[i].score.false_alarms) << want[i].detector;
  }
}

TEST(SocReport, RendersAllSections) {
  detect::DetectionPipeline pipeline;
  pipeline.fit_nip_baseline(world().env.app, 0, sim::days(1));
  const auto result =
      pipeline.run(world().env.app, world().env.actors, sim::days(1), sim::days(2));
  std::vector<mitigate::EnforcementAction> actions = {
      {sim::days(1) + sim::hours(3), "fp-block", "123456"}};
  scenario::SocReportInputs inputs{world().env.app, world().env.actors, result, sim::days(1),
                                   sim::days(2), actions};
  const auto report = scenario::render_soc_report(inputs);
  EXPECT_NE(report.find("SOC WEEKLY REPORT"), std::string::npos);
  EXPECT_NE(report.find("HTTP requests"), std::string::npos);
  EXPECT_NE(report.find("holds created"), std::string::npos);
  EXPECT_NE(report.find("Detector"), std::string::npos);
  EXPECT_NE(report.find("Enforcement actions"), std::string::npos);
  EXPECT_NE(report.find("fp-block"), std::string::npos);
}

TEST(SocReport, EmptyActionsOmitTimeline) {
  detect::DetectionPipeline pipeline;
  const auto result =
      pipeline.run(world().env.app, world().env.actors, sim::days(1), sim::days(2));
  scenario::SocReportInputs inputs{world().env.app, world().env.actors, result, sim::days(1),
                                   sim::days(2), {}};
  const auto report = scenario::render_soc_report(inputs);
  EXPECT_EQ(report.find("Enforcement actions"), std::string::npos);
}

}  // namespace
}  // namespace fraudsim
