#include "sax/fast_paa.h"

#include "sax/simd/kernels.h"
#include "util/check.h"

namespace egi::sax {

void FastPaa::ComputeBlock(size_t start, size_t count, size_t n, int w,
                           std::span<double> out) const {
  EGI_CHECK(w >= 1 && static_cast<size_t>(w) <= n)
      << "PAA size " << w << " invalid for window length " << n;
  EGI_CHECK(out.size() == count * static_cast<size_t>(w));
  EGI_CHECK(count >= 1 && start + count - 1 + n <= stats_->size())
      << "window block out of bounds";
  simd::ActiveKernels().paa_block(*stats_, start, count, n, w, out.data());
}

}  // namespace egi::sax
