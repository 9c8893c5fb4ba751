// FNV-1a digest over exact bit patterns, for golden tests that pin an
// output bit for bit to a constant captured from a reference build. A
// digest mismatch means some double changed in its last bit (or a count
// changed) — exactly the regressions a tolerance-based EXPECT_NEAR misses.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "stats/distribution.h"

namespace eprons {

class BitDigest {
 public:
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void mix_double(double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  }
  void mix_doubles(const std::vector<double>& values) {
    mix(values.size());
    for (double v : values) mix_double(v);
  }
  void mix_distribution(const DiscreteDistribution& d) {
    mix_double(d.offset());
    mix_double(d.step());
    mix_doubles(d.pmf());
  }
  void mix_string(const std::string& text) {
    mix(text.size());
    for (unsigned char c : text) mix(c);
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace eprons
