/// swe_rk4 — compressed RK4 shallow-water stepping, one client, one step per
/// unit.
///
/// Why: this workload only encodes — it never decodes and never serializes.
/// It has the widest lincombs, over int32 bins past L2 (9 x 512 KiB per
/// height update), and the raw physics bounds what codec work can save.
/// With request_stream it gives the pair of inputs a lincomb-path change
/// needs: int8 cache-resident and int32 past L2.
///
/// Each step drives the public pieces CompressedShallowWaterStepper uses
/// under SweScheme::kRk4, so each layer is timed on its own: one
/// ShallowWaterModel::step_rk4 (sim), 16 Compressor::compress calls on the
/// tendency fields (codec), and 3 CompressedStateStepper::advance lincombs
/// of arity 9, 5 and 5 (ops).

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/codec/serialization.hpp"
#include "core/parallel/thread_pool.hpp"
#include "sim/compressed_stepper.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using pyblaz::Compressor;
using pyblaz::CompressorSettings;
using pyblaz::Shape;
using sim::CompressedStateStepper;

/// Steps the set-up check compares with CompressedShallowWaterStepper.
constexpr int kPrefixSteps = 3;
/// error_linf_rel is the mean over kErrorRuns runs (the seed's own and runs
/// from seeds derived from it) of the worst track's error after kErrorSteps
/// steps.  The error grows with the steps (the inline-compression
/// question); one initial condition moves it by +-20%, the mean of twelve
/// by a quarter to a third of that.
constexpr int kErrorSteps = 40;
constexpr int kErrorRuns = 12;

CompressorSettings swe_settings() {
  CompressorSettings s;
  s.block_shape = Shape{8, 8};
  s.float_type = pyblaz::FloatType::kFloat64;
  s.index_type = pyblaz::IndexType::kInt32;
  s.transform = pyblaz::TransformKind::kDCT;
  return s;
}

struct State {
  explicit State(const sim::SweConfig& config)
      : model(config),
        h(Compressor(swe_settings()), model.surface_height()),
        u(Compressor(swe_settings()), model.velocity_u()),
        v(Compressor(swe_settings()), model.velocity_v()) {}

  sim::ShallowWaterModel model;
  CompressedStateStepper h, u, v;
};

CompressedArray encode(const CompressedStateStepper& track,
                       const NDArray<double>& field) {
  trace::Span span("codec.compress", raw_bytes(field));
  CompressedArray out = track.encode(field);
  span.add_bytes(compressed_bytes(out));
  return out;
}

template <std::size_t N>
void advance(CompressedStateStepper& track, const pyblaz::LinExpr<N>& update) {
  std::uint64_t bytes = 0;
  for (const CompressedArray* operand : update.operands)
    bytes += compressed_bytes(*operand);
  trace::Span span("ops.lincomb", bytes);
  track.advance(update);
  span.add_bytes(compressed_bytes(track.state()));
}

class SweRk4 final : public Workload {
 public:
  explicit SweRk4(const WorkloadOptions& options) {
    config_.nx = options.smoke ? 32 : 256;
    config_.ny = options.smoke ? 64 : 512;
    // Keep the default 10 km cell so the default dt stays CFL-safe.
    config_.lx = 1.0e4 * static_cast<double>(config_.nx);
    config_.ly = 1.0e4 * static_cast<double>(config_.ny);
    config_.precision = pyblaz::FloatType::kFloat64;
    config_.seed = options.seed;
  }

  const char* name() const override { return "swe_rk4"; }
  int clients() const override { return 1; }
  int pool_threads() const override { return 4; }

  void setup() override { state_ = std::make_unique<State>(config_); }

  int prepare() override {
    int failures = 0;
    pyblaz::parallel::set_num_threads(1);
    sim::CompressedShallowWaterStepper library(
        config_, swe_settings(), sim::LincombPath::kFused,
        sim::SweScheme::kRk4);
    library.run(kPrefixSteps);
    pyblaz::parallel::set_num_threads(pool_threads());

    State mine(config_);
    for (int k = 0; k < kPrefixSteps; ++k) step(mine);
    if (digest(library.compressed_height()) != digest(mine.h.state()) ||
        digest(library.compressed_u()) != digest(mine.u.state()) ||
        digest(library.compressed_v()) != digest(mine.v.state()) ||
        digest(library.model().surface_height()) !=
            digest(mine.model.surface_height()))
      ++failures;

    for (int k = kPrefixSteps; k < kErrorSteps; ++k) step(mine);
    std::vector<double> errors = {worst_track_error(mine)};
    for (int run = 1; run < kErrorRuns; ++run) {
      sim::SweConfig derived = config_;
      derived.seed = config_.seed * 0x9E3779B97F4A7C15ull +
                     static_cast<std::uint64_t>(run);
      State other(derived);
      for (int k = 0; k < kErrorSteps; ++k) step(other);
      errors.push_back(worst_track_error(other));
    }
    error_ = std::accumulate(errors.begin(), errors.end(), 0.0) /
             static_cast<double>(errors.size());
    const double raw = static_cast<double>(
        raw_bytes(mine.model.surface_height()) +
        raw_bytes(mine.model.velocity_u()) +
        raw_bytes(mine.model.velocity_v()));
    const double archive = static_cast<double>(
        pyblaz::serialize(mine.h.state()).size() +
        pyblaz::serialize(mine.u.state()).size() +
        pyblaz::serialize(mine.v.state()).size());
    ratio_ = raw / archive;
    state_bytes_ = compressed_bytes(mine.h.state());
    return failures;
  }

  void reset() override { setup(); }

  void run(int, std::uint64_t) override {
    step(*state_);
    expected_rebins_ += 3;
  }

  bool check(int, std::uint64_t) override {
    for (const CompressedStateStepper* track :
         {&state_->h, &state_->u, &state_->v})
      for (double n : track->state().biggest)
        if (!std::isfinite(n)) return false;
    return true;
  }

  std::uint64_t replay_units() const override { return 8; }
  std::uint64_t round_units() const override { return 10; }
  double error_linf_rel() const override { return error_; }
  double compression_ratio() const override { return ratio_; }

  double unit_working_set_bytes() const override {
    // Model state and the four stages' tendency fields, plus the 16
    // compressed tendencies and three compressed tracks.
    return 24.0 * field_bytes() + 19.0 * static_cast<double>(state_bytes_);
  }
  double total_working_set_bytes() const override {
    return unit_working_set_bytes();
  }

 private:
  double field_bytes() const {
    return static_cast<double>(config_.nx * config_.ny) * sizeof(double);
  }

  static double worst_track_error(const State& s) {
    return std::max({linf_over_range(s.h.read(), s.model.surface_height()),
                     linf_over_range(s.u.read(), s.model.velocity_u()),
                     linf_over_range(s.v.read(), s.model.velocity_v())});
  }

  void step(State& s) const {
    sim::SweRk4Tendencies stages;
    {
      // Computed: 4 stages x (5 fields read + 7 written).
      trace::Span span("sim.model_step",
                       static_cast<std::uint64_t>(48.0 * field_bytes()));
      s.model.step_rk4(&stages);
    }
    const double dt = s.model.config().dt;
    const double sixth = dt / 6.0;
    const double third = dt / 3.0;

    const CompressedArray fx1 = encode(s.h, stages.stage1.flux_x);
    const CompressedArray fy1 = encode(s.h, stages.stage1.flux_y);
    const CompressedArray fx2 = encode(s.h, stages.stage2.flux_x);
    const CompressedArray fy2 = encode(s.h, stages.stage2.flux_y);
    const CompressedArray fx3 = encode(s.h, stages.stage3.flux_x);
    const CompressedArray fy3 = encode(s.h, stages.stage3.flux_y);
    const CompressedArray fx4 = encode(s.h, stages.stage4.flux_x);
    const CompressedArray fy4 = encode(s.h, stages.stage4.flux_y);
    advance(s.h, s.h.state() - sixth * fx1 - sixth * fy1 - third * fx2 -
                     third * fy2 - third * fx3 - third * fy3 - sixth * fx4 -
                     sixth * fy4);

    const CompressedArray du1 = encode(s.u, stages.stage1.du);
    const CompressedArray du2 = encode(s.u, stages.stage2.du);
    const CompressedArray du3 = encode(s.u, stages.stage3.du);
    const CompressedArray du4 = encode(s.u, stages.stage4.du);
    advance(s.u, s.u.state() + sixth * du1 + third * du2 + third * du3 +
                     sixth * du4);

    const CompressedArray dv1 = encode(s.v, stages.stage1.dv);
    const CompressedArray dv2 = encode(s.v, stages.stage2.dv);
    const CompressedArray dv3 = encode(s.v, stages.stage3.dv);
    const CompressedArray dv4 = encode(s.v, stages.stage4.dv);
    advance(s.v, s.v.state() + sixth * dv1 + third * dv2 + third * dv3 +
                     sixth * dv4);
  }

  sim::SweConfig config_;
  std::unique_ptr<State> state_;
  double error_ = 0.0;
  double ratio_ = 0.0;
  std::uint64_t state_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_swe_rk4(const WorkloadOptions& options) {
  return std::make_unique<SweRk4>(options);
}

}  // namespace perfbench
