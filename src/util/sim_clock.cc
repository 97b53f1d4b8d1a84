#include "util/sim_clock.h"

namespace sharoes {

CostSnapshot CostSnapshot::operator-(const CostSnapshot& rhs) const {
  CostSnapshot d;
  d.total_ns = total_ns - rhs.total_ns;
  for (int i = 0; i < kNumCostCategories; ++i) {
    d.by_category_ns[i] = by_category_ns[i] - rhs.by_category_ns[i];
  }
  return d;
}

CostSnapshot& CostSnapshot::operator+=(const CostSnapshot& rhs) {
  total_ns += rhs.total_ns;
  for (int i = 0; i < kNumCostCategories; ++i) {
    by_category_ns[i] += rhs.by_category_ns[i];
  }
  return *this;
}

void SimClock::Advance(uint64_t ns, CostCategory category) {
  snapshot_.total_ns += ns;
  snapshot_.by_category_ns[static_cast<int>(category)] += ns;
}

}  // namespace sharoes
