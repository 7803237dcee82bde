#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.h"

namespace egi {

double ScoreEq5(size_t predict_position, size_t gt_position,
                size_t gt_length) {
  EGI_CHECK(gt_length > 0) << "ground truth length must be positive";
  const double diff = predict_position > gt_position
                          ? static_cast<double>(predict_position - gt_position)
                          : static_cast<double>(gt_position - predict_position);
  return 1.0 - std::min(1.0, diff / static_cast<double>(gt_length));
}

double BestScore(std::span<const Detection> candidates,
                 const Range& ground_truth) {
  double best = 0.0;
  for (const auto& c : candidates) {
    best = std::max(best, ScoreEq5(c.position, ground_truth.start,
                                   ground_truth.length));
  }
  return best;
}

bool IsHit(std::span<const Detection> candidates, const Range& ground_truth) {
  return BestScore(candidates, ground_truth) > 0.0;
}

namespace eval {

void WinTieLoss::Add(double proposed_score, double baseline_score,
                     double eps) {
  if (proposed_score > baseline_score + eps) {
    ++wins;
  } else if (baseline_score > proposed_score + eps) {
    ++losses;
  } else {
    ++ties;
  }
}

std::string WinTieLoss::ToString() const {
  return std::to_string(wins) + "/" + std::to_string(ties) + "/" +
         std::to_string(losses);
}

double MethodAggregate::AverageScore() const {
  if (scores.empty()) return 0.0;
  double sum = 0.0;
  for (double s : scores) sum += s;
  return sum / static_cast<double>(scores.size());
}

double MethodAggregate::HitRate() const {
  if (scores.empty()) return 0.0;
  int hits = 0;
  for (double s : scores) {
    if (s > 0.0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(scores.size());
}

}  // namespace eval
}  // namespace egi
