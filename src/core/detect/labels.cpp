#include "core/detect/labels.hpp"

#include <algorithm>

namespace fraudsim::detect {

ActorScore score_actors(const std::unordered_set<web::ActorId>& flagged,
                        const std::vector<web::ActorId>& universe,
                        const app::ActorRegistry& registry, TruthCriterion criterion) {
  ActorScore score;
  for (const auto actor : universe) {
    const bool truth = criterion == TruthCriterion::Abuser ? registry.abuser(actor)
                                                           : registry.automated(actor);
    const bool predicted = flagged.contains(actor);
    score.confusion.add(predicted, truth);
    if (truth && !predicted) score.missed.push_back(actor);
    if (!truth && predicted) score.false_alarms.push_back(actor);
  }
  return score;
}

std::vector<web::ActorId> actors_of(const std::vector<web::Session>& sessions) {
  std::vector<web::ActorId> actors;
  for (const auto& s : sessions) actors.push_back(s.actor);
  std::sort(actors.begin(), actors.end());
  actors.erase(std::unique(actors.begin(), actors.end()), actors.end());
  return actors;
}

}  // namespace fraudsim::detect
