/// Golden digests: the CRC-32 of the v3 archive and of the decompressed
/// doubles for a seeded corpus, pinned as literals.  Round-trip tests cannot
/// see a symmetric change to writer and reader, or a kernel change that
/// moves every result by an ulp; this table can.  Each case runs every float
/// type x index type, encodes at 1 and 4 threads, and re-reads the full
/// array through decompress_roi with the decoded-block cache off and on.
/// Every digest must match the table.  The kernels are compiler-vectorized
/// for whatever ISA the build targets, so a native and a portable build
/// must both reproduce it.
///
/// The corpus is built from Rng::uniform with + - * only, so its bytes do
/// not depend on the host's libm.  The shapes cover both transform arms:
/// dense (DCT 256, Haar 4x4) and factorized (every other case, including
/// long strided DCT axes).  After a deliberate format or arithmetic change,
/// a failing case prints its recomputed table row.
///
/// A second table pins op results the same way: the archive CRC of a biased
/// 3-operand lincomb, a 9-operand lincomb and each output of a K = 4
/// lincomb_batch, plus mean and dot as hex doubles, for a 2-D, a 3-D and a
/// pruned case at every index type and at 1 and 4 threads.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cache/block_cache.hpp"
#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/util/checksum.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

constexpr std::array<FloatType, 4> kFloatTypes = {
    FloatType::kBFloat16, FloatType::kFloat16, FloatType::kFloat32,
    FloatType::kFloat64};
constexpr std::array<IndexType, 4> kIndexTypes = {
    IndexType::kInt8, IndexType::kInt16, IndexType::kInt32, IndexType::kInt64};

/// {archive CRC, decompressed-values CRC} per float type x index type, float
/// type major, in kFloatTypes x kIndexTypes order.
using DigestRow = std::array<std::array<std::uint32_t, 2>, 16>;

struct GoldenCase {
  const char* name;
  Shape shape;
  Shape block;
  TransformKind transform;
  double keep;  ///< Pruning keep fraction; 1 keeps every coefficient.
  std::uint64_t seed;
  DigestRow digests;
};

/// A smooth random quadratic over the normalized coordinates plus uniform
/// noise, in roughly [-4, 4].
NDArray<double> corpus(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  const int d = shape.ndim();
  std::vector<double> linear(static_cast<std::size_t>(d));
  std::vector<double> square(static_cast<std::size_t>(d));
  for (int a = 0; a < d; ++a) {
    linear[static_cast<std::size_t>(a)] = rng.uniform(-2.0, 2.0);
    square[static_cast<std::size_t>(a)] = rng.uniform(-1.0, 1.0);
  }
  const double offset = rng.uniform(-1.0, 1.0);
  NDArray<double> out(shape);
  std::vector<index_t> idx(static_cast<std::size_t>(d), 0);
  for (index_t k = 0; k < out.size(); ++k) {
    double v = offset;
    for (int a = 0; a < d; ++a) {
      const double t = static_cast<double>(idx[static_cast<std::size_t>(a)]) /
                       static_cast<double>(shape[a]);
      v += linear[static_cast<std::size_t>(a)] * t +
           square[static_cast<std::size_t>(a)] * t * t;
    }
    out[k] = v + 0.25 * rng.uniform(-1.0, 1.0);
    for (int a = d - 1; a >= 0; --a) {
      if (++idx[static_cast<std::size_t>(a)] < shape[a]) break;
      idx[static_cast<std::size_t>(a)] = 0;
    }
  }
  return out;
}

/// CRC-32 of the values as little-endian IEEE-754 doubles.
std::uint32_t values_crc(const NDArray<double>& values) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(values.size()) * 8);
  for (index_t k = 0; k < values.size(); ++k) {
    const auto bits = std::bit_cast<std::uint64_t>(values[k]);
    for (int b = 0; b < 8; ++b)
      bytes.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
  }
  return crc32(bytes);
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

/// @p row laid out as in golden_cases(), ready to paste over a stale row.
std::string format_row(const DigestRow& row) {
  std::string s = "       {{";
  for (std::size_t k = 0; k < row.size(); ++k) {
    if (k > 0) s += k % 2 == 0 ? ",\n         " : ", ";
    s += "{" + hex(row[k][0]) + ", " + hex(row[k][1]) + "}";
  }
  return s + "}}},";
}

/// Restores the thread count and default cache capacity.
struct ConfigGuard {
  index_t capacity = cache::default_capacity_blocks();
  ~ConfigGuard() {
    parallel::set_num_threads(0);
    cache::set_default_capacity(capacity);
  }
};

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {"dct1d_1000_b256", Shape{1000}, Shape{256}, TransformKind::kDCT, 1.0, 11,
       {{{0x611760d4, 0xcfbb783e}, {0x1d765283, 0x9fa3354f},
         {0xcd2c9c79, 0x14174f4a}, {0x7790e6bf, 0x14174f4a},
         {0x595920f1, 0x33b9c902}, {0x3015667a, 0x0ded02bd},
         {0xfb8f8e6f, 0x1ffc5f38}, {0xadfa97f5, 0x1ffc5f38},
         {0x91f535b7, 0x40c23724}, {0xbfb8823a, 0x880d0c05},
         {0xa70897a4, 0x8092450a}, {0x106657fc, 0x289331ad},
         {0xeb6ba05e, 0x0161fff3}, {0x34c5f643, 0x843936e2},
         {0xfe49ad6e, 0x4c48afc6}, {0xb5e78c32, 0xdb6f0140}}}},
      {"dct1d_4096_b16", Shape{4096}, Shape{16}, TransformKind::kDCT, 1.0, 12,
       {{{0x6220cb05, 0xd0b5e264}, {0xe4563e37, 0x1fca5b7c},
         {0xc96b58f1, 0xef47ba26}, {0x6a183f84, 0xef47ba26},
         {0x23e73df3, 0xd21735aa}, {0xde4018f2, 0xb0127afd},
         {0x948c7d60, 0xf365201e}, {0x072a7bd4, 0xf365201e},
         {0x37571355, 0xe3e3c10e}, {0xa59ef72d, 0xda4f5cd0},
         {0x22b59c1f, 0xa064e785}, {0xe2e04a1a, 0x5fca04f3},
         {0x8f04fb24, 0xe462d7b3}, {0x20b878d3, 0x78825179},
         {0xce4db765, 0x8ac1b31f}, {0x5ad36db7, 0x0df231b7}}}},
      {"dct2d_40x66_b8x8", Shape{40, 66}, Shape{8, 8},
       TransformKind::kDCT, 1.0, 13,
       {{{0xeb509929, 0xdc28ae72}, {0xb78d33a1, 0x0ae7840f},
         {0xaf03ead3, 0x6a190ecd}, {0x82846b4e, 0x6a190ecd},
         {0x4dc7ef6d, 0x67f4c0d1}, {0x6463dfab, 0x98625d55},
         {0x4978953d, 0x61b658b6}, {0xb989b3f8, 0x61b658b6},
         {0x7af4b0f6, 0xd402f9bf}, {0x07b7f7b8, 0x234859ac},
         {0xe06263a0, 0xc996d0dd}, {0x74906138, 0x29ac967d},
         {0x8ab285ca, 0xcc430fba}, {0x9f93a42b, 0x2724ee3f},
         {0xbc6eee9d, 0xe2b33299}, {0x75c9e35b, 0xdcdd6d08}}}},
      {"haar2d_64x64_b4x4", Shape{64, 64}, Shape{4, 4},
       TransformKind::kHaar, 1.0, 14,
       {{{0xbda632cb, 0xd936ac47}, {0x8f24e0a5, 0x026fa5d2},
         {0x46110d52, 0x2067dea5}, {0xc055b785, 0x2067dea5},
         {0xc61dee05, 0x2e6e00de}, {0xfa84c642, 0xe630f8ba},
         {0xa1963954, 0xf4634e5e}, {0x635cbeb6, 0xf4634e5e},
         {0x4fa5af9e, 0x26238e77}, {0xd085f726, 0xd2c8c5a0},
         {0xd8809916, 0xedba9536}, {0x776dd5aa, 0xf440a37e},
         {0x3162dd99, 0x65bf55e1}, {0x8946b9a4, 0x52e30c05},
         {0xd4af036c, 0xf98c8e96}, {0x55391d4e, 0x01cc9b88}}}},
      {"haar2d_64x64_b8x8", Shape{64, 64}, Shape{8, 8},
       TransformKind::kHaar, 1.0, 15,
       {{{0x122a1457, 0x415b9983}, {0x520c17b3, 0xa8b773c1},
         {0xa68b6d57, 0x5831e99b}, {0x24c44c31, 0x5831e99b},
         {0x5bfeeb3a, 0x11f891f2}, {0x024d5417, 0xc957d338},
         {0x07f8ec17, 0x8ed3378f}, {0x778475bf, 0x8ed3378f},
         {0xebb0daeb, 0xe6bfae25}, {0xc506a628, 0x51289456},
         {0x5bb3bec2, 0xa6c5f823}, {0x9f4ca6a3, 0x3b1bd9ca},
         {0x73499ff7, 0x1384369b}, {0x1b879cf4, 0xf167a3f2},
         {0xc12947d6, 0x60e8a198}, {0xd8a43416, 0x571184d2}}}},
      {"dct3d_20x24x28_b4x4x4", Shape{20, 24, 28}, Shape{4, 4, 4},
       TransformKind::kDCT, 1.0, 16,
       {{{0x3b920ad0, 0x97dbba21}, {0x141090d3, 0xaabc7116},
         {0xa644749a, 0x4d9f12d8}, {0xe39456b8, 0x4d9f12d8},
         {0x220a20c5, 0xcec05db7}, {0x624a5958, 0xa860334b},
         {0x0c658381, 0x23e97078}, {0xc91ac0a5, 0x23e97078},
         {0x12442b12, 0x975b0bf8}, {0xfaa890a8, 0xfa19ea6a},
         {0x5c868e2e, 0xb0a4913b}, {0xf6f8cca8, 0x7b6c2b48},
         {0x84a3fb1c, 0x9a966e19}, {0x1c46014f, 0x053c943f},
         {0xf5f59154, 0xf510b908}, {0xfcf4c1a6, 0xd828c6f5}}}},
      {"dct2d_128x128_b32x32", Shape{128, 128}, Shape{32, 32},
       TransformKind::kDCT, 1.0, 17,
       {{{0x47b74162, 0x8e1cc001}, {0x6f87621a, 0xad966329},
         {0xa507a470, 0xc33e2f32}, {0xb26f2ae6, 0xc33e2f32},
         {0x3ff9688b, 0x27347d64}, {0x95fa8b85, 0x49bb895a},
         {0x6eb3986e, 0xf8227c7b}, {0x3a86dca7, 0xf8227c7b},
         {0xa6d33b80, 0x3534cc9a}, {0x3c564d6c, 0x3f5e3af9},
         {0xc137cf9b, 0x3b75d65e}, {0x877623ab, 0x1701133c},
         {0xad0255a1, 0x41491c27}, {0x74faa184, 0xe4c35a30},
         {0x85c9aba4, 0xf55d1fde}, {0xfd768ba2, 0xb0c0f2ee}}}},
      {"dct3d_64x64x64_b32x8x32", Shape{64, 64, 64}, Shape{32, 8, 32},
       TransformKind::kDCT, 1.0, 18,
       {{{0xb4509a78, 0xdb88797d}, {0x6c143e48, 0xbb06d362},
         {0xed9cafbd, 0xd9cb6428}, {0x82b6aeea, 0xd9cb6428},
         {0x2fae8ddd, 0x563f10dd}, {0x13c791dd, 0x0d05f1a6},
         {0x7909bffb, 0x96fe7369}, {0xa192c732, 0x42e3e5e1},
         {0xcdbbb6a8, 0x99cca9ff}, {0x0fbeb8aa, 0xb5ef2ba7},
         {0xf3050925, 0x8985fff6}, {0x4a43dc54, 0x1e2a697b},
         {0xdd5d276f, 0x8881bb50}, {0x539e6305, 0x32923734},
         {0x36f4ef1e, 0xbd0c8ca2}, {0x6ba0754a, 0xba365453}}}},
      {"dct2d_256x256_b64x64", Shape{256, 256}, Shape{64, 64},
       TransformKind::kDCT, 1.0, 19,
       {{{0xc9388943, 0x78d2d92c}, {0xac5b94f2, 0x9e4dbd58},
         {0x08360cde, 0x303e47ba}, {0x2fc5acfc, 0x303e47ba},
         {0x2b5e1360, 0x6b4e2281}, {0x465d576b, 0x59b1fb23},
         {0xe7bff188, 0x185cff58}, {0xf14f5d65, 0x185cff58},
         {0x37e60929, 0x2ce00bd6}, {0xb0b40b59, 0xc2e19743},
         {0x45ff8fb5, 0x8495ae3c}, {0x73f13eee, 0x070c25be},
         {0xeea50f73, 0xc7cc1923}, {0x1ac23f97, 0x1014c925},
         {0xa2a54160, 0x644643fa}, {0xd5989b9c, 0x82dc6de7}}}},
      {"dct2d_130x70_b128x16", Shape{130, 70}, Shape{128, 16},
       TransformKind::kDCT, 1.0, 20,
       {{{0xb88d7292, 0xd87b3960}, {0x043cfcec, 0x072b2530},
         {0x636cb333, 0x3551f049}, {0xa5e16d13, 0x3551f049},
         {0x094d51da, 0x9166c6ae}, {0xb428a956, 0x846ac034},
         {0x70cf3710, 0xdbd668b8}, {0xbb50bd07, 0xdbd668b8},
         {0xc5699ad1, 0x76f94a0c}, {0xd5f8b6bb, 0x653b7007},
         {0x83658bfa, 0x570df182}, {0xca0a1e14, 0x2392bc37},
         {0xb0dd766c, 0xe40b37e3}, {0xc3c70817, 0x8a4212e5},
         {0xf0b38089, 0x6bf8c3e4}, {0x9d070b5e, 0x85d0762a}}}},
      {"dct2d_40x66_b8x8_keep25", Shape{40, 66}, Shape{8, 8},
       TransformKind::kDCT, 0.25, 21,
       {{{0x9d161e7c, 0x3246c10c}, {0x61c22dec, 0x57c97884},
         {0x236eb7f4, 0x148069d0}, {0x822607a2, 0x148069d0},
         {0xf67761fb, 0x222412f9}, {0xc45bbb59, 0x70354ce8},
         {0x12e4704e, 0x20757353}, {0xeca8d08c, 0x20757353},
         {0xa5ce1e82, 0x7d8f4f85}, {0x524a6c63, 0xbe3d2543},
         {0x6c6fdbfc, 0xc4c00f00}, {0x30c7af38, 0x2cb45846},
         {0xcfd489dd, 0xce0f7646}, {0x465a5b29, 0x4a78b15d},
         {0xbd5fafd8, 0xed8491d4}, {0x89bf74fe, 0x8cef412f}}}},
  };
  return cases;
}

class GoldenArchive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenArchive, DigestsMatchUnderEveryBackendThreadCountAndCache) {
  const GoldenCase& c = golden_cases()[GetParam()];
  ConfigGuard guard;
  const NDArray<double> input = corpus(c.shape, c.seed);

  DigestRow computed{};
  for (std::size_t fi = 0; fi < kFloatTypes.size(); ++fi) {
    for (std::size_t ii = 0; ii < kIndexTypes.size(); ++ii) {
      CompressorSettings settings;
      settings.block_shape = c.block;
      settings.float_type = kFloatTypes[fi];
      settings.index_type = kIndexTypes[ii];
      settings.transform = c.transform;
      if (c.keep < 1.0)
        settings.mask = PruningMask::keep_fraction(c.block, c.keep);
      const Compressor compressor(settings);
      const std::size_t slot = fi * kIndexTypes.size() + ii;
      const std::vector<index_t> origin(c.shape.dims().size(), 0);

      for (int threads : {1, 4}) {
        parallel::set_num_threads(threads);
        const std::string where = name(kFloatTypes[fi]) + "/" +
                                  name(kIndexTypes[ii]) + " t" +
                                  std::to_string(threads);
        const std::vector<std::uint8_t> archive =
            serialize(compressor.compress(input));
        const std::uint32_t values =
            values_crc(compressor.decompress(deserialize(archive)));
        computed[slot] = {crc32(archive), values};
        EXPECT_EQ(hex(computed[slot][0]), hex(c.digests[slot][0]))
            << "archive " << where;
        EXPECT_EQ(hex(values), hex(c.digests[slot][1])) << "values " << where;

        // Random access over the whole array, cache off and on, reads the
        // same values as the full decompress.
        for (index_t capacity : {index_t{0}, index_t{64}}) {
          cache::set_default_capacity(capacity);
          const NDArray<double> roi =
              deserialize(archive).decompress_roi(origin, c.shape.dims());
          EXPECT_EQ(hex(values_crc(roi)), hex(values))
              << "decompress_roi " << where << " cache " << capacity;
        }
      }
    }
  }
  if (computed != c.digests)
    ADD_FAILURE() << "recomputed digests for " << c.name << ":\n"
                  << format_row(computed);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenArchive,
    ::testing::Range(std::size_t{0}, golden_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(golden_cases()[info.param].name);
    });

// ---------------------------------------------------------------------------
// Op results.  The archive table pins compress and decompress; this one pins
// what the compressed-space ops produce, so a kernel change that moves a
// lincomb or batch result by one bin cannot pass unseen.

/// One index type's op results over a case's nine operands x0..x8.
struct OpDigests {
  /// Archive CRC of x0 - 0.5 x1 + 0.25 x2 + 0.125 (the request-stream mix
  /// with a bias).
  std::uint32_t lincomb3;
  /// Archive CRC of the 9-operand RK4 height update
  /// x0 - (x1 + x2 + x7 + x8) / 6 - (x3 + x4 + x5 + x6) / 3.
  std::uint32_t lincomb9;
  /// Archive CRC of each output of a K = 4 lincomb_batch: request k is
  /// x0 - 0.25 (k+1) x1 + 0.5 x2 + 0.125 (k+1) x(3+k) + 0.0625 k, so the
  /// requests share 3 of their 4 operands.
  std::array<std::uint32_t, 4> batch;
  double mean;  ///< ops::mean(x0).
  double dot;   ///< ops::dot(x0, x1).
};

struct OpCase {
  const char* name;
  Shape shape;
  Shape block;
  double keep;
  FloatType float_type;
  std::uint64_t seed;
  std::array<OpDigests, 4> digests;  ///< Per index type, kIndexTypes order.
};

std::string hex_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string format_op_digests(const OpDigests& d) {
  return "{" + hex(d.lincomb3) + ", " + hex(d.lincomb9) + ", {" +
         hex(d.batch[0]) + ", " + hex(d.batch[1]) + ", " + hex(d.batch[2]) +
         ", " + hex(d.batch[3]) + "},\n          " + hex_double(d.mean) +
         ", " + hex_double(d.dot) + "}";
}

bool same_bits(const OpDigests& a, const OpDigests& b) {
  return a.lincomb3 == b.lincomb3 && a.lincomb9 == b.lincomb9 &&
         a.batch == b.batch &&
         std::bit_cast<std::uint64_t>(a.mean) ==
             std::bit_cast<std::uint64_t>(b.mean) &&
         std::bit_cast<std::uint64_t>(a.dot) ==
             std::bit_cast<std::uint64_t>(b.dot);
}

OpDigests op_digests(const std::vector<CompressedArray>& x) {
  OpDigests d{};
  d.lincomb3 = crc32(serialize(
      ops::lincomb({{1.0, &x[0]}, {-0.5, &x[1]}, {0.25, &x[2]}}, 0.125)));
  const double sixth = -1.0 / 6.0;
  const double third = -1.0 / 3.0;
  d.lincomb9 = crc32(serialize(ops::lincomb(
      {{1.0, &x[0]}, {sixth, &x[1]}, {sixth, &x[2]}, {third, &x[3]},
       {third, &x[4]}, {third, &x[5]}, {third, &x[6]}, {sixth, &x[7]},
       {sixth, &x[8]}})));

  std::array<std::array<const CompressedArray*, 4>, 4> operands;
  std::array<std::array<double, 4>, 4> weights;
  std::vector<ops::LincombRequest> requests;
  for (std::size_t k = 0; k < 4; ++k) {
    const double step = static_cast<double>(k + 1);
    operands[k] = {&x[0], &x[1], &x[2], &x[3 + k]};
    weights[k] = {1.0, -0.25 * step, 0.5, 0.125 * step};
    requests.push_back({operands[k], weights[k], 0.0625 * (step - 1.0)});
  }
  const std::vector<CompressedArray> outputs = ops::lincomb_batch(requests);
  for (std::size_t k = 0; k < 4; ++k)
    d.batch[k] = crc32(serialize(outputs[k]));

  d.mean = ops::mean(x[0]);
  d.dot = ops::dot(x[0], x[1]);
  return d;
}

const std::vector<OpCase>& op_cases() {
  static const std::vector<OpCase> cases = {
      {"dct2d_40x66_b8x8_f32", Shape{40, 66}, Shape{8, 8}, 1.0,
       FloatType::kFloat32, 31,
       {{{0x7339ac30, 0x267ae0b6, {0xf282eb63, 0x98d2ceb3, 0xd538353a, 0xe407ddd1},
          -0x1.957de6ed0d4dcp+0, -0x1.0860f816653c2p+12},
         {0xcc07c69b, 0x85d350c1, {0xe234b6e4, 0x57c97ab1, 0x3c695c94, 0x07b045cb},
          -0x1.958231868d404p+0, -0x1.085bf0b6986e3p+12},
         {0x887dba8a, 0x2c4ad6de, {0x5ff05b84, 0x0347edcd, 0x829c1955, 0x0ebc71c1},
          -0x1.9582315a8879ap+0, -0x1.085be1e0518f7p+12},
         {0xf7c3f748, 0x6afd07f3, {0xbd099c6d, 0x429f0e73, 0xb598c4bc, 0x467aa8a6},
          -0x1.9582315a9f49fp+0, -0x1.085be1e07833cp+12}}}},
      {"dct3d_20x24x28_b4x4x4_f64", Shape{20, 24, 28}, Shape{4, 4, 4}, 1.0,
       FloatType::kFloat64, 32,
       {{{0xb2b73ae8, 0x6e1bd34d, {0xcbbfbb65, 0x2e34628d, 0xdf9b83ef, 0xa3eaf502},
          0x1.338b2f71657a2p-1, 0x1.10556bbd7059ap+7},
         {0xb48bdbd4, 0x44090ceb, {0x04400112, 0xadda6c63, 0xb29511ed, 0x90e4213c},
          0x1.338af22da249ep-1, 0x1.0ff784bc04f66p+7},
         {0x4a358016, 0x8f10fc5f, {0x4061d9b2, 0x1cc7dcc4, 0xa5a912ad, 0x1b77d24d},
          0x1.338af22c7cd92p-1, 0x1.0ff6a5fa9308cp+7},
         {0x09e7e5bc, 0x3abb7f38, {0x0ac1312a, 0xe54832b5, 0xec69dd7c, 0x42e0377d},
          0x1.338af22c7c50ep-1, 0x1.0ff6a5fadd824p+7}}}},
      {"dct2d_40x66_b8x8_keep25_bf16", Shape{40, 66}, Shape{8, 8}, 0.25,
       FloatType::kBFloat16, 33,
       {{{0x3e40331b, 0x51d56afa, {0xc4e8d500, 0xed47b2e6, 0x7e8fc650, 0x5404db30},
          0x1.5e60158056015p+0, -0x1.9869aba4dcep+11},
         {0xcebb8c8a, 0xf75d48c5, {0xa0272821, 0x78fe2a75, 0xdd6d6502, 0x7ae8c4b7},
          0x1.5e2c75533a4b7p+0, -0x1.97fdc0918cae4p+11},
         {0x14ce3897, 0x66d6bdea, {0xdaefcbd6, 0x48f652d9, 0xac8dd723, 0x8fb609b0},
          0x1.5e2c66663bd04p+0, -0x1.97fda916fa441p+11},
         {0x21d275d4, 0x4c8ceeeb, {0xfa160874, 0x0c527c8a, 0x4f5a28b7, 0x78007299},
          0x1.5e2c666666666p+0, -0x1.97fda9173cae4p+11}}}},
  };
  return cases;
}

class GoldenOps : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenOps, LincombBatchMeanAndDotMatchAtOneAndFourThreads) {
  const OpCase& c = op_cases()[GetParam()];
  ConfigGuard guard;
  std::vector<NDArray<double>> inputs;
  for (std::uint64_t k = 0; k < 9; ++k)
    inputs.push_back(corpus(c.shape, 16 * c.seed + k));

  std::array<OpDigests, 4> computed{};
  for (std::size_t ii = 0; ii < kIndexTypes.size(); ++ii) {
    CompressorSettings settings;
    settings.block_shape = c.block;
    settings.float_type = c.float_type;
    settings.index_type = kIndexTypes[ii];
    if (c.keep < 1.0)
      settings.mask = PruningMask::keep_fraction(c.block, c.keep);
    const Compressor compressor(settings);
    for (int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      std::vector<CompressedArray> x;
      for (const NDArray<double>& input : inputs)
        x.push_back(compressor.compress(input));
      computed[ii] = op_digests(x);
      EXPECT_TRUE(same_bits(computed[ii], c.digests[ii]))
          << name(kIndexTypes[ii]) << " t" << threads << ": got\n"
          << format_op_digests(computed[ii]) << "\nwant\n"
          << format_op_digests(c.digests[ii]);
    }
  }
  bool all_match = true;
  for (std::size_t ii = 0; ii < computed.size(); ++ii)
    all_match = all_match && same_bits(computed[ii], c.digests[ii]);
  if (!all_match) {
    std::string row = "       {{";
    for (std::size_t ii = 0; ii < computed.size(); ++ii)
      row += (ii > 0 ? ",\n         " : "") + format_op_digests(computed[ii]);
    ADD_FAILURE() << "recomputed op digests for " << c.name << ":\n"
                  << row << "}}},";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenOps, ::testing::Range(std::size_t{0}, op_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(op_cases()[info.param].name);
    });

}  // namespace
}  // namespace pyblaz
