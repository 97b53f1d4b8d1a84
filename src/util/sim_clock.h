// The virtual clock and cost meter behind every SHAROES experiment.
//
// The paper's evaluation runs a real client in Birmingham against a real
// SSP in Atlanta over home DSL, on a Pentium-4 1 GHz laptop. This repo
// replaces wall-clock waiting with a single virtual clock: the network
// model charges per-message latency and per-byte transfer time, and the
// crypto layer charges a calibrated per-operation cost (while still really
// executing the cryptography). Charges are tagged with a category so the
// NETWORK / CRYPTO / OTHER decomposition of the paper's Figure 13 falls
// out of the same accounting.

#ifndef SHAROES_UTIL_SIM_CLOCK_H_
#define SHAROES_UTIL_SIM_CLOCK_H_

#include <array>
#include <cstdint>

namespace sharoes {

/// Cost categories matching the decomposition in the paper's Figure 13.
enum class CostCategory : int {
  kNetwork = 0,
  kCrypto = 1,
  kOther = 2,
};

constexpr int kNumCostCategories = 3;

/// A point-in-time copy of the meter, used to compute deltas around an
/// operation or a benchmark phase.
struct CostSnapshot {
  uint64_t total_ns = 0;
  std::array<uint64_t, kNumCostCategories> by_category_ns = {0, 0, 0};

  uint64_t network_ns() const {
    return by_category_ns[static_cast<int>(CostCategory::kNetwork)];
  }
  uint64_t crypto_ns() const {
    return by_category_ns[static_cast<int>(CostCategory::kCrypto)];
  }
  uint64_t other_ns() const {
    return by_category_ns[static_cast<int>(CostCategory::kOther)];
  }

  CostSnapshot operator-(const CostSnapshot& rhs) const;
  CostSnapshot& operator+=(const CostSnapshot& rhs);

  double total_ms() const { return static_cast<double>(total_ns) / 1e6; }
  double total_s() const { return static_cast<double>(total_ns) / 1e9; }
};

/// Accumulates virtual time. One SimClock instance is shared by the
/// network model, the crypto cost model and the client ("other" charges),
/// so a workload's elapsed virtual time is simply the clock delta.
class SimClock {
 public:
  SimClock() = default;

  /// Charges `ns` of virtual time to `category`.
  void Advance(uint64_t ns, CostCategory category);
  void AdvanceMs(double ms, CostCategory category) {
    Advance(static_cast<uint64_t>(ms * 1e6), category);
  }

  uint64_t now_ns() const { return snapshot_.total_ns; }
  CostSnapshot snapshot() const { return snapshot_; }
  void Reset() { snapshot_ = CostSnapshot(); }

 private:
  CostSnapshot snapshot_;
};

}  // namespace sharoes

#endif  // SHAROES_UTIL_SIM_CLOCK_H_
