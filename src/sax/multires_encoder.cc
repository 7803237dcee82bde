#include "sax/multires_encoder.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "sax/simd/kernels.h"
#include "sax/word_code.h"
#include "util/check.h"

namespace egi::sax {

namespace {

// Step 1 of EncodeAll for one block of consecutive positions: packs each
// position's word and appends it to `runs` (and its position to `offsets`)
// unless numerosity reduction folds it into the run before. Row b of
// `intervals` holds position first_pos + b's w merged-axis interval
// indices; `symbols` is the request's alphabet row of the interval ->
// symbol table, so each symbol is one load and the word is packed in
// registers (one 64-bit accumulator when it fits, else WordCodec's 128-bit
// shift).
void AppendBlockRuns(std::span<const uint32_t> intervals, size_t first_pos,
                     std::span<const uint8_t> symbols, const WordCodec& codec,
                     bool numerosity_reduction, std::vector<WordCode>& runs,
                     std::vector<size_t>& offsets) {
  const auto uw = static_cast<size_t>(codec.word_length());
  const int bits = codec.bits_per_symbol();
  const bool narrow = codec.word_length() * bits <= 64;
  for (size_t b = 0; b * uw < intervals.size(); ++b) {
    const uint32_t* row = intervals.data() + b * uw;
    WordCode code;
    if (narrow) {
      // Bitwise what AppendSymbol yields: the high half never fills.
      for (size_t i = 0; i < uw; ++i) {
        code.lo = (code.lo << bits) | symbols[row[i]];
      }
    } else {
      for (size_t i = 0; i < uw; ++i) {
        codec.AppendSymbol(code, symbols[row[i]]);
      }
    }
    if (numerosity_reduction && !runs.empty() && code == runs.back()) {
      continue;
    }
    runs.push_back(code);
    offsets.push_back(first_pos + b);
  }
}

// Step 2: interns a request's runs in position order into a table sized for
// the run count, which bounds its vocabulary, so no intern rehashes.
void InternRuns(std::span<const WordCode> runs, const WordCodec& codec,
                DiscretizedSeries& out) {
  out.table = TokenTable(codec, runs.size());
  out.seq.tokens.reserve(runs.size());
  for (const WordCode& code : runs) {
    out.seq.tokens.push_back(out.table.Intern(code));
  }
}

}  // namespace

MultiResSaxEncoder::MultiResSaxEncoder(std::span<const double> series,
                                       size_t window_length, int amax,
                                       bool numerosity_reduction)
    : window_length_(window_length),
      numerosity_reduction_(numerosity_reduction),
      stats_(series),
      summary_(amax) {}

Result<DiscretizedSeries> MultiResSaxEncoder::Encode(int paa_size,
                                                     int alphabet_size) const {
  const WaParam p{paa_size, alphabet_size};
  EGI_ASSIGN_OR_RETURN(auto all, EncodeAll(std::span<const WaParam>(&p, 1)));
  return std::move(all[0]);
}

Result<std::vector<DiscretizedSeries>> MultiResSaxEncoder::EncodeAll(
    std::span<const WaParam> params) const {
  // Validate every request up front.
  for (const auto& p : params) {
    SaxParams sp;
    sp.window_length = window_length_;
    sp.paa_size = p.paa_size;
    sp.alphabet_size = p.alphabet_size;
    EGI_RETURN_IF_ERROR(ValidateSaxParams(stats_.size(), sp));
    if (p.alphabet_size > summary_.amax()) {
      return Status::InvalidArgument(
          "alphabet size " + std::to_string(p.alphabet_size) +
          " exceeds encoder amax " + std::to_string(summary_.amax()));
    }
  }

  std::vector<DiscretizedSeries> results(params.size());
  std::vector<WordCodec> codecs(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    results[i].series_length = stats_.size();
    results[i].window_length = window_length_;
    results[i].paa_size = params[i].paa_size;
    results[i].alphabet_size = params[i].alphabet_size;
    codecs[i] = WordCodec(params[i].paa_size, params[i].alphabet_size);
  }

  // Group requests by w so PAA is computed once per distinct w: a flat
  // index vector stably sorted by w, walked one equal-w run at a time.
  std::vector<size_t> order(params.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return params[a].paa_size < params[b].paa_size;
  });

  const FastPaa fast_paa(&stats_);
  const size_t positions = stats_.size() - window_length_ + 1;
  const std::span<const double> merged = summary_.merged_breakpoints();

  // Positions are processed in blocks so the PAA and breakpoint-resolution
  // kernels (sax/simd/, runtime-dispatched AVX2 with a scalar fallback) get
  // full vector lanes: one paa_block call fills a block * w coefficient
  // matrix, one intervals call resolves every coefficient in it against the
  // merged breakpoint axis. Block size trades kernel-call overhead against
  // scratch footprint; 128 rows keep the buffers comfortably in L1/L2.
  constexpr size_t kBlockPositions = 128;

  std::vector<double> coeffs;
  std::vector<uint32_t> intervals;
  std::vector<std::vector<WordCode>> runs;  // per request of the w group

  for (size_t g = 0; g < order.size();) {
    const int w = params[order[g]].paa_size;
    size_t g_end = g;
    while (g_end < order.size() && params[order[g_end]].paa_size == w) ++g_end;

    const auto uw = static_cast<size_t>(w);
    coeffs.resize(kBlockPositions * uw);
    intervals.resize(kBlockPositions * uw);
    if (runs.size() < g_end - g) runs.resize(g_end - g);
    for (std::vector<WordCode>& r : runs) r.clear();

    for (size_t block = 0; block < positions; block += kBlockPositions) {
      const size_t block_count = std::min(kBlockPositions, positions - block);
      fast_paa.ComputeBlock(block, block_count, window_length_, w,
                            std::span<double>(coeffs.data(), block_count * uw));
      simd::ActiveKernels().intervals(coeffs.data(), block_count * uw,
                                      merged.data(), merged.size(),
                                      intervals.data());

      const std::span<const uint32_t> block_intervals(intervals.data(),
                                                      block_count * uw);
      for (size_t k = g; k < g_end; ++k) {
        const size_t ri = order[k];
        AppendBlockRuns(block_intervals, block,
                        summary_.SymbolRow(params[ri].alphabet_size),
                        codecs[ri], numerosity_reduction_, runs[k - g],
                        results[ri].seq.offsets);
      }
    }
    for (size_t k = g; k < g_end; ++k) {
      InternRuns(runs[k - g], codecs[order[k]], results[order[k]]);
    }
    g = g_end;
  }
  return results;
}

}  // namespace egi::sax
