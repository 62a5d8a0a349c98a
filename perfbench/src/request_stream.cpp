/// request_stream — the canonical request under two closed-loop clients.
///
/// Why: every codec stage, the serializer with its checksum, and the
/// scheduler under two concurrent callers do most of the work; the lincomb
/// is one short int8 pass whose bins stay in L2 (256 KiB per operand).
///
/// Each request: compress a fresh 512x512 field from a seeded pool, evaluate
/// fresh - 0.5 b + 0.25 c against the client's two standing operands (one
/// 3-operand lincomb), serialize (v3 + CRC), deserialize, decompress.

#include <algorithm>
#include <array>
#include <numeric>

#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/util/rng.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using pyblaz::Compressor;
using pyblaz::CompressorSettings;
using pyblaz::Shape;

constexpr int kClients = 2;

CompressorSettings request_settings() {
  CompressorSettings s;
  s.block_shape = Shape{8, 8};
  s.float_type = pyblaz::FloatType::kFloat32;
  s.index_type = pyblaz::IndexType::kInt8;
  s.transform = pyblaz::TransformKind::kDCT;
  return s;
}

class RequestStream final : public Workload {
 public:
  explicit RequestStream(const WorkloadOptions& options)
      : seed_(options.seed),
        side_(options.smoke ? 64 : 512),
        pool_size_(options.smoke ? 4 : 16) {}

  const char* name() const override { return "request_stream"; }
  int clients() const override { return kClients; }
  // Two callers plus two pool workers: four executing threads.
  int pool_threads() const override { return 3; }

  void setup() override {
    pyblaz::Rng rng(seed_);
    const Shape shape{side_, side_};
    pool_.clear();
    for (int k = 0; k < pool_size_; ++k)
      pool_.push_back(pyblaz::random_smooth(shape, rng, 6));
    for (Client& c : clients_) {
      c.raw_b = pyblaz::random_smooth(shape, rng, 6);
      c.raw_c = pyblaz::random_smooth(shape, rng, 6);
      c.b = compressor_.compress(c.raw_b);
      c.c = compressor_.compress(c.raw_c);
      c.order.resize(static_cast<std::size_t>(pool_size_));
      std::iota(c.order.begin(), c.order.end(), 0);
      std::shuffle(c.order.begin(), c.order.end(), rng.engine());
    }
  }

  int prepare() override {
    pyblaz::parallel::set_num_threads(1);
    std::vector<double> errors;
    for (Client& c : clients_) {
      c.reference.assign(static_cast<std::size_t>(pool_size_), {});
      for (int idx = 0; idx < pool_size_; ++idx) {
        Output out = request(c, idx);
        Reference& ref = c.reference[static_cast<std::size_t>(idx)];
        ref.archive = digest(out.archive.data(), out.archive.size());
        ref.decoded = digest(out.decoded);
        archive_bytes_ = out.archive.size();

        NDArray<double> exact = pool_[static_cast<std::size_t>(idx)];
        for (pyblaz::index_t k = 0; k < exact.size(); ++k)
          exact[k] += -0.5 * c.raw_b[k] + 0.25 * c.raw_c[k];
        errors.push_back(linf_over_range(out.decoded, exact));
      }
    }
    pyblaz::parallel::set_num_threads(pool_threads());
    error_ = median(errors);
    return 0;
  }

  void run(int client, std::uint64_t seq) override {
    Client& c = clients_[static_cast<std::size_t>(client)];
    c.last = request(c, index_of(c, seq));
    ++expected_rebins_;
  }

  bool check(int client, std::uint64_t seq) override {
    Client& c = clients_[static_cast<std::size_t>(client)];
    const Reference& ref =
        c.reference[static_cast<std::size_t>(index_of(c, seq))];
    const bool ok =
        digest(c.last.archive.data(), c.last.archive.size()) == ref.archive &&
        digest(c.last.decoded) == ref.decoded;
    c.last = {};  // Free outside the timed unit.
    return ok;
  }

  std::uint64_t replay_units() const override { return 32; }
  std::uint64_t round_units() const override { return 32; }
  double error_linf_rel() const override { return error_; }
  double compression_ratio() const override {
    return static_cast<double>(side_ * side_ * sizeof(double)) /
           static_cast<double>(archive_bytes_);
  }

  double unit_working_set_bytes() const override {
    // Fresh field in, three compressed operands, archive, decoded field out.
    const double field = static_cast<double>(side_ * side_ * sizeof(double));
    const double compressed = static_cast<double>(
        compressed_bytes(clients_[0].b));
    return 2.0 * field + 4.0 * compressed +
           static_cast<double>(archive_bytes_);
  }
  double total_working_set_bytes() const override {
    const double field = static_cast<double>(side_ * side_ * sizeof(double));
    return static_cast<double>(pool_size_) * field +
           kClients * unit_working_set_bytes();
  }

 private:
  struct Output {
    std::vector<std::uint8_t> archive;
    NDArray<double> decoded;
  };
  struct Reference {
    std::uint64_t archive = 0;
    std::uint64_t decoded = 0;
  };
  struct Client {
    NDArray<double> raw_b, raw_c;
    CompressedArray b, c;
    std::vector<int> order;  ///< Seeded visiting order of the pool.
    std::vector<Reference> reference;
    Output last;
  };

  int index_of(const Client& c, std::uint64_t seq) const {
    return c.order[static_cast<std::size_t>(seq % c.order.size())];
  }

  Output request(const Client& c, int idx) const {
    const NDArray<double>& input = pool_[static_cast<std::size_t>(idx)];
    CompressedArray fresh;
    {
      trace::Span span("codec.compress", raw_bytes(input));
      fresh = compressor_.compress(input);
      span.add_bytes(compressed_bytes(fresh));
    }
    CompressedArray mix;
    {
      trace::Span span("ops.lincomb", compressed_bytes(fresh) +
                                          compressed_bytes(c.b) +
                                          compressed_bytes(c.c));
      mix = (fresh - 0.5 * c.b + 0.25 * c.c).eval();
      span.add_bytes(compressed_bytes(mix));
    }
    Output out;
    {
      trace::Span span("codec.serialize", compressed_bytes(mix));
      out.archive = pyblaz::serialize(mix);
      span.add_bytes(out.archive.size());
    }
    CompressedArray back;
    {
      trace::Span span("codec.deserialize", out.archive.size());
      back = pyblaz::deserialize(out.archive);
      span.add_bytes(compressed_bytes(back));
    }
    {
      trace::Span span("codec.decompress", compressed_bytes(back));
      out.decoded = compressor_.decompress(back);
      span.add_bytes(raw_bytes(out.decoded));
    }
    return out;
  }

  std::uint64_t seed_;
  pyblaz::index_t side_;
  int pool_size_;
  Compressor compressor_{request_settings()};
  std::vector<NDArray<double>> pool_;
  std::array<Client, kClients> clients_;
  double error_ = 0.0;
  std::size_t archive_bytes_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_request_stream(const WorkloadOptions& options) {
  return std::make_unique<RequestStream>(options);
}

}  // namespace perfbench
