#pragma once

#include <span>
#include <string>

#include "sax/numerosity.h"
#include "sax/token_table.h"
#include "util/result.h"

namespace egi::sax {

/// Discretization parameters for one SAX run (paper Section 4).
struct SaxParams {
  size_t window_length = 0;  ///< sliding window length n
  int paa_size = 4;          ///< w, number of PAA segments per window
  int alphabet_size = 4;     ///< a, SAX alphabet size
  bool numerosity_reduction = true;
};

/// A discretized time series: the numerosity-reduced token sequence plus the
/// token table mapping ids to packed word codes (strings are rendered
/// lazily, only for display — see sax/word_code.h).
struct DiscretizedSeries {
  TokenRuns seq;
  TokenTable table;
  size_t series_length = 0;
  size_t window_length = 0;
  int paa_size = 0;
  int alphabet_size = 0;

  /// Number of sliding-window positions in the original series.
  size_t num_positions() const { return series_length - window_length + 1; }
};

/// Validates SAX parameters against a series length.
Status ValidateSaxParams(size_t series_length, const SaxParams& params);

/// Rejects series containing NaN or Inf (applied by every public entry
/// point that consumes raw series data).
Status ValidateSeriesValues(std::span<const double> series);

/// SAX word (letters) for a single, standalone subsequence — the Figure 3
/// operation: z-normalize, PAA, map through Gaussian breakpoints. It is
/// DiscretizeSeries with the window spanning the whole subsequence and
/// numerosity reduction off, so it validates the same way (NaN and Inf
/// included) and yields exactly the word batch encoding gives that window.
Result<std::string> SaxWordForSubsequence(std::span<const double> values,
                                          int paa_size, int alphabet_size);

/// Discretizes the whole series via a sliding window (single resolution):
/// validates, then runs MultiResSaxEncoder::Encode with amax = a, so there is
/// one word loop. Produces the numerosity-reduced token sequence.
Result<DiscretizedSeries> DiscretizeSeries(std::span<const double> series,
                                           const SaxParams& params);

}  // namespace egi::sax
