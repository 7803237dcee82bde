#include "grammar/density.h"

#include <algorithm>

#include "util/check.h"

namespace egi::grammar {

namespace {

// Both curves are a +-1 int64 difference array over the series, one
// interval per rule occurrence, then a prefix sum. Integer adds commute, so
// the order occurrences arrive in cannot change a bit of the result.
class CoverageDiff {
 public:
  CoverageDiff(std::span<const size_t> offsets, size_t input_length,
               size_t series_length, size_t window_length)
      : offsets_(offsets),
        series_length_(series_length),
        window_length_(window_length),
        diff_(series_length + 1, 0) {
    EGI_CHECK(offsets.size() == input_length)
        << "offsets (" << offsets.size()
        << ") must match grammar input length (" << input_length << ")";
    EGI_CHECK(window_length >= 1 && window_length <= series_length);
  }

  // An occurrence spanning tokens [p, p + e) covers time points
  // [offsets[p], offsets[p + e - 1] + window_length - 1], clamped.
  void Add(size_t p, size_t e) {
    EGI_DCHECK(e >= 1);
    EGI_DCHECK(p + e <= offsets_.size());
    const size_t start = offsets_[p];
    const size_t end = std::min(series_length_ - 1,
                                offsets_[p + e - 1] + window_length_ - 1);
    EGI_DCHECK(start <= end);
    diff_[start] += 1;
    diff_[end + 1] -= 1;
  }

  std::vector<double> Curve(bool normalize_by_coverage) const {
    std::vector<double> density(series_length_);
    int64_t running = 0;
    const size_t last_start = series_length_ - window_length_;
    for (size_t t = 0; t < series_length_; ++t) {
      running += diff_[t];
      EGI_DCHECK(running >= 0);
      density[t] = static_cast<double>(running);
      if (normalize_by_coverage) {
        // Number of sliding-window start positions p with p <= t <= p+n-1.
        const size_t lo =
            t >= window_length_ - 1 ? t - (window_length_ - 1) : 0;
        const size_t hi = std::min(t, last_start);
        const double coverage = static_cast<double>(hi - lo + 1);
        density[t] /= coverage;
      }
    }
    return density;
  }

 private:
  std::span<const size_t> offsets_;
  size_t series_length_;
  size_t window_length_;
  std::vector<int64_t> diff_;
};

}  // namespace

std::vector<double> BuildRuleDensityCurve(const Grammar& grammar,
                                          std::span<const size_t> offsets,
                                          size_t series_length,
                                          size_t window_length,
                                          bool normalize_by_coverage) {
  CoverageDiff diff(offsets, grammar.input_length, series_length,
                    window_length);
  for (const auto& rule : grammar.rules) {
    for (size_t p : rule.occurrences) diff.Add(p, rule.expansion_length);
  }
  return diff.Curve(normalize_by_coverage);
}

std::vector<double> BuildRuleDensityCurve(const SequiturBuilder& builder,
                                          std::span<const size_t> offsets,
                                          size_t series_length,
                                          size_t window_length,
                                          bool normalize_by_coverage,
                                          GrammarSize* size) {
  CoverageDiff diff(offsets, builder.num_appended(), series_length,
                    window_length);
  const GrammarSize walked = builder.VisitRuleOccurrences(
      [&](size_t p, size_t e) { diff.Add(p, e); });
  if (size != nullptr) *size = walked;
  return diff.Curve(normalize_by_coverage);
}

}  // namespace egi::grammar
