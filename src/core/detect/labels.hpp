// Detector scoring against ground truth.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "app/actors.hpp"
#include "util/stats.hpp"
#include "web/session.hpp"

namespace fraudsim::detect {

// Actor-level scoring: which actors did a detector flag vs which actors are
// truly abusers/automated.
struct ActorScore {
  util::ConfusionCounts confusion;
  std::vector<web::ActorId> missed;         // abusers never flagged
  std::vector<web::ActorId> false_alarms;   // humans flagged
};

enum class TruthCriterion { Abuser, Automated };

// Scores a set of flagged actors against all actors seen in `universe`.
[[nodiscard]] ActorScore score_actors(const std::unordered_set<web::ActorId>& flagged,
                                      const std::vector<web::ActorId>& universe,
                                      const app::ActorRegistry& registry,
                                      TruthCriterion criterion);

// Collects the distinct actors appearing in a session list.
[[nodiscard]] std::vector<web::ActorId> actors_of(const std::vector<web::Session>& sessions);

}  // namespace fraudsim::detect
