#include "sax/sax_encoder.h"

#include <string>

#include "sax/breakpoints.h"
#include "sax/multires_encoder.h"
#include "ts/stats.h"

namespace egi::sax {

Status ValidateSeriesValues(std::span<const double> series) {
  if (!ts::AllFinite(series)) {
    return Status::InvalidArgument(
        "series contains non-finite values (NaN or Inf)");
  }
  return Status::OK();
}

Status ValidateSaxParams(size_t series_length, const SaxParams& params) {
  if (params.window_length < 2) {
    return Status::InvalidArgument("window length must be >= 2, got " +
                                   std::to_string(params.window_length));
  }
  if (params.window_length > series_length) {
    return Status::InvalidArgument(
        "window length " + std::to_string(params.window_length) +
        " exceeds series length " + std::to_string(series_length));
  }
  if (params.paa_size < 1 ||
      static_cast<size_t>(params.paa_size) > params.window_length) {
    return Status::InvalidArgument("PAA size must be in [1, window], got " +
                                   std::to_string(params.paa_size));
  }
  if (params.alphabet_size < kMinAlphabetSize ||
      params.alphabet_size > kMaxAlphabetSize) {
    return Status::InvalidArgument("alphabet size must be in [2, 64], got " +
                                   std::to_string(params.alphabet_size));
  }
  if (!WordCodec::Supported(params.paa_size, params.alphabet_size)) {
    return Status::InvalidArgument(
        "SAX word (w=" + std::to_string(params.paa_size) +
        ", a=" + std::to_string(params.alphabet_size) + ") needs " +
        std::to_string(params.paa_size *
                       BitsPerSymbol(params.alphabet_size)) +
        " bits, exceeding the " + std::to_string(kWordCodeBits) +
        "-bit packed word code; reduce w or a");
  }
  return Status::OK();
}

Result<std::string> SaxWordForSubsequence(std::span<const double> values,
                                          int paa_size, int alphabet_size) {
  SaxParams p;
  p.window_length = values.size();
  p.paa_size = paa_size;
  p.alphabet_size = alphabet_size;
  p.numerosity_reduction = false;
  EGI_ASSIGN_OR_RETURN(const auto one, DiscretizeSeries(values, p));
  return one.table.Word(one.seq.tokens[0]);
}

Result<DiscretizedSeries> DiscretizeSeries(std::span<const double> series,
                                           const SaxParams& params) {
  // Validated before the encoder exists: its breakpoint summary aborts on an
  // out-of-range alphabet size.
  EGI_RETURN_IF_ERROR(ValidateSeriesValues(series));
  EGI_RETURN_IF_ERROR(ValidateSaxParams(series.size(), params));
  const MultiResSaxEncoder encoder(series, params.window_length,
                                   params.alphabet_size,
                                   params.numerosity_reduction);
  return encoder.Encode(params.paa_size, params.alphabet_size);
}

}  // namespace egi::sax
