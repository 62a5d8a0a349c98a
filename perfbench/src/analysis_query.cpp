/// analysis_query — read-only compressed-domain analytics over a corpus of
/// MRI volumes, one client, one query per unit.
///
/// Why: this is the paper's central use.  Table I operations run with no
/// encode, no serialization and no concurrency, so the reductions,
/// lincomb_batch and the ROI/cache path carry the load.  The mix puts the
/// median inside one query kind, so it does not jump between modes.
///
/// The corpus is 8 sim::flair_volume volumes (36x256x256) compressed with
/// 4x4x4 blocks, float32/int16, DCT.  Queries cycle through a seeded
/// shuffle of a fixed mix of 100: 60 reductions on seeded pairs (10 dot, 30
/// cosine, 10 variance, 10 global SSIM), 10 SSIM maps, 10 Wasserstein
/// distances (p = 2), 10 anomaly batches (K = 4 expressions
/// v_k - 1/4 sum_j v_j over shared operands, then the L2 norm of each) and
/// 10 ROI reads of a 16x32x32 window at a Zipf-skewed location, with the
/// block cache sized to about 10% of the corpus's blocks.

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <thread>

#include "core/cache/block_cache.hpp"
#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/reference/reference.hpp"
#include "core/util/rng.hpp"
#include "sim/mri/mri.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using pyblaz::Compressor;
using pyblaz::CompressorSettings;
using pyblaz::index_t;
using pyblaz::Shape;

enum class Kind {
  kDot,
  kCosine,
  kVariance,
  kSsim,
  kSsimMap,
  kWasserstein,
  kAnomaly,
  kRoi
};

/// Queries of each kind in one cycle of 100, in Kind order.  Cosine gets
/// half the reductions: sorted by latency the cheaper kinds (ROI, dot,
/// variance, SSIM map) fill ranks 1-40 and cosine ranks 41-70, so the
/// median sits well inside one kind.
constexpr std::array<int, 8> kMix = {10, 30, 10, 10, 10, 10, 10, 10};
constexpr int kAnomalyK = 4;
constexpr int kRoiCandidates = 256;
constexpr double kZipfExponent = 1.1;
constexpr double kCacheFraction = 0.10;

CompressorSettings corpus_settings() {
  CompressorSettings s;
  s.block_shape = Shape{4, 4, 4};
  s.float_type = pyblaz::FloatType::kFloat32;
  s.index_type = pyblaz::IndexType::kInt16;
  s.transform = pyblaz::TransformKind::kDCT;
  return s;
}

struct Query {
  Kind kind = Kind::kDot;
  std::array<int, kAnomalyK> volumes{};  ///< Pairs use the first two.
};

struct Window {
  int volume = 0;
  std::vector<index_t> lo, hi;
};

/// Population mean/variance/covariance of each block, the raw-data
/// counterpart of the compressed blockwise statistics.
struct BlockStats {
  NDArray<double> mean;
  std::vector<double> variance;
};

class AnalysisQuery final : public Workload {
 public:
  explicit AnalysisQuery(const WorkloadOptions& options)
      : seed_(options.seed),
        volumes_(options.smoke ? 4 : 8),
        volume_shape_(options.smoke ? Shape{16, 32, 32} : Shape{36, 256, 256}),
        window_shape_(options.smoke ? Shape{8, 8, 8} : Shape{16, 32, 32}) {}

  const char* name() const override { return "analysis_query"; }
  int clients() const override { return 1; }
  int pool_threads() const override { return 4; }

  void setup() override {
    raw_.assign(static_cast<std::size_t>(volumes_), {});
    // The generator is serial; four threads fill the corpus in parallel.
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([this, t] {
        for (int k = t; k < volumes_; k += 4) {
          sim::MriVolumeConfig config;
          config.depth = volume_shape_[0];
          config.height = volume_shape_[1];
          config.width = volume_shape_[2];
          config.seed = seed_ * 1000 + static_cast<std::uint64_t>(k);
          raw_[static_cast<std::size_t>(k)] = sim::flair_volume(config);
        }
      });
    for (std::thread& t : threads) t.join();

    const index_t blocks =
        Shape::ceil_div(volume_shape_, corpus_settings().block_shape).volume();
    pyblaz::cache::set_default_capacity(static_cast<index_t>(
        std::ceil(kCacheFraction * static_cast<double>(blocks))));
    corpus_.clear();
    for (const NDArray<double>& volume : raw_)
      corpus_.push_back(compressor_.compress(volume));
    make_queries();
  }

  int prepare() override {
    errors_.clear();
    pyblaz::parallel::set_num_threads(1);
    reference_.assign(queries_.size(), 0);
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      if (queries_[q].kind == Kind::kRoi) continue;
      Answer answer = evaluate(queries_[q]);
      reference_[q] = answer.digest;
      errors_.push_back(error_against_raw(queries_[q], answer));
    }
    pyblaz::parallel::set_num_threads(pool_threads());

    // ROI references come from a full decompress: a region read must give
    // the same bits as the whole-array decode.
    window_reference_.assign(windows_.size(), 0);
    double archive = 0.0, raw = 0.0;
    for (int v = 0; v < volumes_; ++v) {
      const NDArray<double> decoded =
          compressor_.decompress(corpus_[static_cast<std::size_t>(v)]);
      // Windows are scaled by the whole volume's range: a background
      // window's own range is near zero and would swamp the figure.
      const auto [lo, hi] = std::minmax_element(
          raw_[static_cast<std::size_t>(v)].vector().begin(),
          raw_[static_cast<std::size_t>(v)].vector().end());
      const double range = *hi - *lo;
      for (std::size_t w = 0; w < windows_.size(); ++w) {
        if (windows_[w].volume != v) continue;
        const NDArray<double> window = crop(decoded, windows_[w]);
        window_reference_[w] = digest(window);
        errors_.push_back(
            linf(window, crop(raw_[static_cast<std::size_t>(v)], windows_[w])) /
            range);
      }
      archive += static_cast<double>(
          pyblaz::serialize(corpus_[static_cast<std::size_t>(v)]).size());
      raw += static_cast<double>(raw_bytes(raw_[static_cast<std::size_t>(v)]));
    }
    ratio_ = raw / archive;
    raw_.clear();  // Only the references needed the raw volumes.
    return 0;
  }

  void run(int, std::uint64_t seq) override {
    const Query& q = queries_[static_cast<std::size_t>(seq % queries_.size())];
    if (q.kind == Kind::kRoi) {
      last_ = read_window(windows_[window_of(seq)]);
      return;
    }
    last_ = evaluate(q);
    if (q.kind == Kind::kAnomaly) {
      expected_rebins_ += kAnomalyK;
      decodes_avoided_bound_ += static_cast<std::uint64_t>(
          kAnomalyK * kAnomalyK * corpus_[0].num_blocks());
    }
  }

  bool check(int, std::uint64_t seq) override {
    const std::size_t q = static_cast<std::size_t>(seq % queries_.size());
    const std::uint64_t expected = queries_[q].kind == Kind::kRoi
                                       ? window_reference_[window_of(seq)]
                                       : reference_[q];
    const bool ok = last_.digest == expected;
    last_ = {};  // Free outside the timed unit.
    return ok;
  }

  std::uint64_t replay_units() const override { return 50; }
  std::uint64_t round_units() const override { return queries_.size(); }
  double error_linf_rel() const override { return median(errors_); }
  double compression_ratio() const override { return ratio_; }

  double unit_working_set_bytes() const override {
    // A pair query reads two compressed volumes.
    return 2.0 * static_cast<double>(compressed_bytes(corpus_[0]));
  }
  double total_working_set_bytes() const override {
    const double cache_bytes =
        kCacheFraction * static_cast<double>(volume_shape_.volume()) *
        sizeof(double);
    return static_cast<double>(volumes_) *
           (static_cast<double>(compressed_bytes(corpus_[0])) + cache_bytes);
  }

 private:
  struct Answer {
    std::uint64_t digest = 0;
    std::vector<double> values;  ///< Scalar answers.
    NDArray<double> field;       ///< SSIM map.
    std::vector<CompressedArray> batch;  ///< Freed in check(), not in run().
  };

  void make_queries() {
    pyblaz::Rng rng(seed_ ^ 0x5eedull);
    queries_.clear();
    for (std::size_t kind = 0; kind < kMix.size(); ++kind)
      for (int n = 0; n < kMix[kind]; ++n) {
        Query q;
        q.kind = static_cast<Kind>(kind);
        std::vector<int> order(static_cast<std::size_t>(volumes_));
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), rng.engine());
        for (int j = 0; j < kAnomalyK; ++j)
          q.volumes[static_cast<std::size_t>(j)] =
              order[static_cast<std::size_t>(j % volumes_)];
        queries_.push_back(q);
      }
    std::shuffle(queries_.begin(), queries_.end(), rng.engine());

    windows_.clear();
    for (int w = 0; w < kRoiCandidates; ++w) {
      Window window;
      window.volume = static_cast<int>(rng.integer(0, volumes_ - 1));
      for (int axis = 0; axis < 3; ++axis) {
        const index_t lo =
            rng.integer(0, volume_shape_[axis] - window_shape_[axis]);
        window.lo.push_back(lo);
        window.hi.push_back(lo + window_shape_[axis]);
      }
      windows_.push_back(std::move(window));
    }
    zipf_cdf_.clear();
    double total = 0.0;
    for (int rank = 0; rank < kRoiCandidates; ++rank) {
      total += std::pow(static_cast<double>(rank + 1), -kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  /// Candidate window of ROI unit @p seq: a Zipf draw keyed by (seed, seq),
  /// so it does not depend on how many units ran before.
  std::size_t window_of(std::uint64_t seq) const {
    const double u = hash_uniform(seed_, 7, seq);
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf_.begin()), windows_.size() - 1);
  }

  const CompressedArray& volume(const Query& q, int j) const {
    return corpus_[slot(q, j)];
  }

  /// Corpus index of the query's @p j-th volume.
  static std::size_t slot(const Query& q, int j) {
    return static_cast<std::size_t>(q.volumes[static_cast<std::size_t>(j)]);
  }

  double reduce(Kind kind, const CompressedArray& a,
                const CompressedArray& b) const {
    trace::Span span("ops.reduce", compressed_bytes(a) +
                                       (kind == Kind::kVariance
                                            ? 0
                                            : compressed_bytes(b)));
    switch (kind) {
      case Kind::kDot:
        return pyblaz::ops::dot(a, b);
      case Kind::kCosine:
        return pyblaz::ops::cosine_similarity(a, b);
      case Kind::kVariance:
        return pyblaz::ops::variance(a);
      default:
        return pyblaz::ops::structural_similarity(a, b);
    }
  }

  Answer evaluate(const Query& q) const {
    Answer out;
    const CompressedArray& a = volume(q, 0);
    const CompressedArray& b = volume(q, 1);
    switch (q.kind) {
      case Kind::kSsimMap: {
        trace::Span span("ops.ssim_map",
                         compressed_bytes(a) + compressed_bytes(b));
        out.field = pyblaz::ops::structural_similarity_map(a, b);
        span.add_bytes(raw_bytes(out.field));
        out.digest = digest(out.field);
        return out;
      }
      case Kind::kWasserstein: {
        trace::Span span("ops.wasserstein",
                         compressed_bytes(a) + compressed_bytes(b));
        out.values = {pyblaz::ops::wasserstein_distance(a, b, 2.0)};
        break;
      }
      case Kind::kAnomaly: {
        pyblaz::BatchEval batch;
        std::uint64_t bytes = 0;
        for (int k = 0; k < kAnomalyK; ++k) {
          // v_k - 1/4 sum_j v_j, with v_k's two terms folded into one.
          const int o1 = (k + 1) % kAnomalyK, o2 = (k + 2) % kAnomalyK,
                    o3 = (k + 3) % kAnomalyK;
          batch.add(0.75 * volume(q, k) - 0.25 * volume(q, o1) -
                    0.25 * volume(q, o2) - 0.25 * volume(q, o3));
          bytes += compressed_bytes(volume(q, k));
        }
        {
          trace::Span span("ops.lincomb_batch", bytes);
          out.batch = batch.eval();
          for (const CompressedArray& r : out.batch)
            span.add_bytes(compressed_bytes(r));
        }
        for (const CompressedArray& r : out.batch) {
          trace::Span span("ops.reduce", compressed_bytes(r));
          out.values.push_back(pyblaz::ops::l2_norm(r));
        }
        break;
      }
      case Kind::kRoi:
        break;
      default:
        out.values = {reduce(q.kind, a, b)};
        break;
    }
    out.digest = digest(out.values.data(), out.values.size() * sizeof(double));
    return out;
  }

  Answer read_window(const Window& w) const {
    const CompressedArray& a = corpus_[static_cast<std::size_t>(w.volume)];
    std::uint64_t blocks = 1;
    for (int axis = 0; axis < 3; ++axis) {
      const index_t side = a.block_shape[axis];
      blocks *= static_cast<std::uint64_t>(
          (w.hi[static_cast<std::size_t>(axis)] + side - 1) / side -
          w.lo[static_cast<std::size_t>(axis)] / side);
    }
    Answer out;
    trace::Span span("codec.roi",
                     blocks * compressed_bytes(a) /
                         static_cast<std::uint64_t>(a.num_blocks()));
    out.field = a.decompress_roi(w.lo, w.hi);
    span.add_bytes(raw_bytes(out.field));
    out.digest = digest(out.field);
    return out;
  }

  NDArray<double> crop(const NDArray<double>& full, const Window& w) const {
    NDArray<double> out(window_shape_);
    index_t k = 0;
    for (index_t z = w.lo[0]; z < w.hi[0]; ++z)
      for (index_t y = w.lo[1]; y < w.hi[1]; ++y)
        for (index_t x = w.lo[2]; x < w.hi[2]; ++x)
          out[k++] = full[(z * volume_shape_[1] + y) * volume_shape_[2] + x];
    return out;
  }

  BlockStats block_stats(const NDArray<double>& x, const NDArray<double>* y,
                         std::vector<double>* covariance) const {
    const Shape block = corpus_settings().block_shape;
    const Shape grid = Shape::ceil_div(volume_shape_, block);
    const index_t rows = volume_shape_[1], cols = volume_shape_[2];
    const double n = static_cast<double>(block.volume());
    BlockStats stats{NDArray<double>(grid), {}};
    std::vector<index_t> offsets;
    for (index_t kb = 0; kb < grid.volume(); ++kb) {
      const index_t bz = kb / (grid[1] * grid[2]);
      const index_t by = kb / grid[2] % grid[1];
      const index_t bx = kb % grid[2];
      offsets.clear();
      for (index_t dz = 0; dz < block[0]; ++dz)
        for (index_t dy = 0; dy < block[1]; ++dy)
          for (index_t dx = 0; dx < block[2]; ++dx)
            offsets.push_back(((bz * block[0] + dz) * rows + by * block[1] +
                               dy) * cols + bx * block[2] + dx);
      double mean = 0.0, other_mean = 0.0;
      for (index_t o : offsets) {
        mean += x[o];
        if (y != nullptr) other_mean += (*y)[o];
      }
      mean /= n;
      other_mean /= n;
      double var = 0.0, cov = 0.0;
      for (index_t o : offsets) {
        var += (x[o] - mean) * (x[o] - mean);
        if (y != nullptr) cov += (x[o] - mean) * ((*y)[o] - other_mean);
      }
      stats.mean[kb] = mean;
      stats.variance.push_back(var / n);
      if (covariance != nullptr) covariance->push_back(cov / n);
    }
    return stats;
  }

  /// Per-block SSIM of the raw volumes (Algorithm 12 per block, default
  /// parameters), the reference for ops::structural_similarity_map.
  NDArray<double> raw_ssim_map(const NDArray<double>& x,
                               const NDArray<double>& y) const {
    std::vector<double> covariance;
    const BlockStats sx = block_stats(x, &y, &covariance);
    const BlockStats sy = block_stats(y, nullptr, nullptr);
    const pyblaz::ops::SsimParams p;
    const double sl = p.luminance_stabilizer, sc = p.contrast_stabilizer;
    NDArray<double> map(sx.mean.shape());
    for (index_t k = 0; k < map.size(); ++k) {
      const std::size_t i = static_cast<std::size_t>(k);
      const double ma = sx.mean[k], mb = sy.mean[k];
      const double va = sx.variance[i], vb = sy.variance[i];
      const double sa = std::sqrt(va), sb = std::sqrt(vb);
      map[k] = (2.0 * ma * mb + sl) / (ma * ma + mb * mb + sl) *
               ((2.0 * sa * sb + sc) / (va + vb + sc)) *
               ((covariance[i] + sc / 2.0) / (sa * sb + sc / 2.0));
    }
    return map;
  }

  /// Normalized error of a compressed-domain answer against the same
  /// quantity computed on the raw volumes.  Wasserstein is compared with
  /// Algorithm 13 on the raw volumes' exact block means, so the figure is
  /// the error compression adds, not the block-mean approximation itself.
  double error_against_raw(const Query& q, const Answer& answer) const {
    const NDArray<double>& x = raw_[slot(q, 0)];
    const NDArray<double>& y = raw_[slot(q, 1)];
    namespace ref = pyblaz::reference;
    switch (q.kind) {
      case Kind::kDot:
        return relative_error(answer.values[0], ref::dot(x, y));
      case Kind::kCosine:
        return relative_error(answer.values[0], ref::cosine_similarity(x, y));
      case Kind::kVariance:
        return relative_error(answer.values[0], ref::variance(x));
      case Kind::kSsim:
        return relative_error(answer.values[0],
                              ref::structural_similarity(x, y));
      case Kind::kSsimMap:
        return linf_over_range(answer.field, raw_ssim_map(x, y));
      case Kind::kWasserstein:
        return relative_error(
            answer.values[0],
            ref::wasserstein_distance(block_stats(x, nullptr, nullptr).mean,
                                      block_stats(y, nullptr, nullptr).mean,
                                      2.0));
      case Kind::kAnomaly: {
        double worst = 0.0;
        for (int k = 0; k < kAnomalyK; ++k) {
          NDArray<double> deviation(volume_shape_);
          for (int j = 0; j < kAnomalyK; ++j) {
            const NDArray<double>& v = raw_[slot(q, j)];
            const double w = j == k ? 0.75 : -0.25;
            for (index_t i = 0; i < v.size(); ++i) deviation[i] += w * v[i];
          }
          worst = std::max(
              worst, relative_error(answer.values[static_cast<std::size_t>(k)],
                                    ref::l2_norm(deviation)));
        }
        return worst;
      }
      case Kind::kRoi:
        break;
    }
    return 0.0;
  }

  std::uint64_t seed_;
  int volumes_;
  Shape volume_shape_;
  Shape window_shape_;
  Compressor compressor_{corpus_settings()};
  std::vector<NDArray<double>> raw_;
  std::vector<CompressedArray> corpus_;
  std::vector<Query> queries_;
  std::vector<Window> windows_;
  std::vector<double> zipf_cdf_;
  std::vector<std::uint64_t> reference_;
  std::vector<std::uint64_t> window_reference_;
  std::vector<double> errors_;  ///< One per reference output.
  double ratio_ = 0.0;
  Answer last_;
};

}  // namespace

std::unique_ptr<Workload> make_analysis_query(const WorkloadOptions& options) {
  return std::make_unique<AnalysisQuery>(options);
}

}  // namespace perfbench
