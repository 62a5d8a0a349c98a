#include "workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/dtypes/float_type.hpp"

namespace perfbench {

std::uint64_t compressed_bytes(const CompressedArray& a) {
  return static_cast<std::uint64_t>(a.biggest.size()) *
             static_cast<std::uint64_t>(pyblaz::bits(a.float_type) / 8) +
         a.indices.byte_size();
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  h ^= word * 0x9E3779B97F4A7C15ull;
  h = std::rotl(h, 29) * 0xBF58476D1CE4E5B9ull;
  return h;
}

std::uint64_t finish(std::uint64_t h) {
  h ^= h >> 31;
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 29);
}

}  // namespace

std::uint64_t digest(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = mix(0x6A09E667F3BCC908ull ^ seed, bytes);
  std::size_t k = 0;
  for (; k + 8 <= bytes; k += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + k, 8);
    h = mix(h, word);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, p + k, bytes - k);
  return finish(mix(h, tail));
}

std::uint64_t digest(const CompressedArray& a) {
  const std::uint64_t n =
      digest(a.biggest.data(), a.biggest.size() * sizeof(double));
  return a.indices.visit([&](const auto* data) {
    return digest(data, a.indices.byte_size(), n);
  });
}

double linf(const NDArray<double>& x, const NDArray<double>& ref) {
  if (!(x.shape() == ref.shape()))
    throw std::invalid_argument("linf: shape mismatch");
  double worst = 0.0;
  for (pyblaz::index_t k = 0; k < ref.size(); ++k)
    worst = std::max(worst, std::abs(x[k] - ref[k]));
  return worst;
}

double linf_over_range(const NDArray<double>& x, const NDArray<double>& ref) {
  const auto [lo, hi] =
      std::minmax_element(ref.vector().begin(), ref.vector().end());
  const double range = *hi - *lo;
  return range > 0.0 ? linf(x, ref) / range : linf(x, ref);
}

double relative_error(double x, double ref) {
  return ref != 0.0 ? std::abs(x - ref) / std::abs(ref) : std::abs(x);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double hash_uniform(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t index) {
  const std::uint64_t h = finish(mix(mix(mix(seed, stream), index), seed));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace perfbench
