// Log-linear latency histogram: exact below 128, then 128 equal-width buckets per power of
// two (bucket width at most 1/128 of the value). Percentiles interpolate linearly inside the
// bucket that holds the requested rank, so a reported latency is a continuous number, not a
// bucket edge. Fixed size (about 58 KiB), no allocation after construction.

#ifndef FSUP_PERFBENCH_HISTOGRAM_HPP_
#define FSUP_PERFBENCH_HISTOGRAM_HPP_

#include <array>
#include <bit>
#include <cstdint>

namespace perfbench {

class Histogram {
 public:
  void Add(uint64_t v) {
    ++buckets_[Index(v)];
    ++count_;
  }

  uint64_t count() const { return count_; }

  // Value at quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    const double target = q * static_cast<double>(count_);
    uint64_t below = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t c = buckets_[i];
      if (c == 0) {
        continue;
      }
      if (static_cast<double>(below + c) >= target) {
        const double frac = (target - static_cast<double>(below)) / static_cast<double>(c);
        return static_cast<double>(Low(i)) + frac * static_cast<double>(Width(i));
      }
      below += c;
    }
    return static_cast<double>(Low(kBuckets - 1));
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  static int Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<int>(v);
    }
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    return (shift + 1) * kSub + static_cast<int>((v >> shift) - kSub);
  }
  static uint64_t Low(int i) {
    if (i < kSub) {
      return static_cast<uint64_t>(i);
    }
    const int group = i >> kSubBits;
    return static_cast<uint64_t>(kSub + (i & (kSub - 1))) << (group - 1);
  }
  static uint64_t Width(int i) { return i < kSub ? 1 : uint64_t{1} << ((i >> kSubBits) - 1); }

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // FSUP_PERFBENCH_HISTOGRAM_HPP_
