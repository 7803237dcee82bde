#pragma once

// The paper's table aggregates. The per-series metrics they aggregate
// (ScoreEq5, BestScore, IsHit) are declared in egi/metrics.h and defined in
// metrics.cc.

#include <string>
#include <vector>

#include "egi/metrics.h"

namespace egi::eval {

/// Win/tie/loss tallies of the proposed method against a baseline.
struct WinTieLoss {
  int wins = 0;
  int ties = 0;
  int losses = 0;

  void Add(double proposed_score, double baseline_score, double eps = 1e-12);
  std::string ToString() const;  ///< "w/t/l" as printed in the paper's tables
};

/// Per-method aggregate over a set of evaluation series.
struct MethodAggregate {
  std::vector<double> scores;  ///< best-of-top-3 Score per series
  double AverageScore() const;
  double HitRate() const;  ///< fraction of series with Score > 0
};

}  // namespace egi::eval
