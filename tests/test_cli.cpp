/// Tests for the pyblaz command-line tool (exercised through cli_lib, no
/// subprocesses needed).

#include "tools/cli_lib.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/ndarray/ndarray_ops.hpp"
#include "core/reference/reference.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

namespace fs = std::filesystem;

/// Temporary working directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("pyblaz_cli_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }

 private:
  fs::path dir_;
  static inline int counter_ = 0;
};

TEST(CliParse, ShapeParsing) {
  EXPECT_EQ(cli::parse_shape("40,40,66"), Shape({40, 40, 66}));
  EXPECT_EQ(cli::parse_shape("7"), Shape({7}));
  EXPECT_THROW(cli::parse_shape(""), std::invalid_argument);
  EXPECT_THROW(cli::parse_shape("4,x"), std::invalid_argument);
  EXPECT_THROW(cli::parse_shape("4,-2"), std::invalid_argument);
  EXPECT_THROW(cli::parse_shape("4,0"), std::invalid_argument);
  EXPECT_THROW(cli::parse_shape("4.5"), std::invalid_argument);
}

TEST(CliParse, TypeParsing) {
  EXPECT_EQ(cli::parse_float_type("float32"), FloatType::kFloat32);
  EXPECT_EQ(cli::parse_float_type("bfloat16"), FloatType::kBFloat16);
  EXPECT_THROW(cli::parse_float_type("fp32"), std::invalid_argument);
  EXPECT_EQ(cli::parse_index_type("int16"), IndexType::kInt16);
  EXPECT_THROW(cli::parse_index_type("uint8"), std::invalid_argument);
  EXPECT_EQ(cli::parse_transform("haar"), TransformKind::kHaar);
  EXPECT_THROW(cli::parse_transform("dft"), std::invalid_argument);
}

TEST(CliFiles, RawRoundTrip) {
  TempDir dir;
  Rng rng(1401);
  NDArray<double> array = random_smooth(Shape{12, 10}, rng);
  cli::write_raw_f64(dir.path("a.f64"), array);
  NDArray<double> restored = cli::read_raw_f64(dir.path("a.f64"), Shape{12, 10});
  EXPECT_EQ(restored, array);
}

TEST(CliFiles, RawSizeMismatchRejected) {
  TempDir dir;
  Rng rng(1403);
  cli::write_raw_f64(dir.path("a.f64"), random_smooth(Shape{8, 8}, rng));
  EXPECT_THROW(cli::read_raw_f64(dir.path("a.f64"), Shape{8, 9}), std::runtime_error);
  EXPECT_THROW(cli::read_raw_f64(dir.path("a.f64"), Shape{8, 7}), std::runtime_error);
  EXPECT_THROW(cli::read_raw_f64(dir.path("missing.f64"), Shape{8, 8}),
               std::runtime_error);
}

TEST(CliCommands, CompressDecompressRoundTrip) {
  TempDir dir;
  Rng rng(1407);
  NDArray<double> array = random_smooth(Shape{32, 32}, rng);
  cli::write_raw_f64(dir.path("in.f64"), array);

  std::ostringstream out;
  int status = cli::run({"compress", dir.path("in.f64"), "--shape", "32,32",
                         "--block", "8,8", "--itype", "int16", "-o",
                         dir.path("c.pyblaz")},
                        out);
  ASSERT_EQ(status, 0) << out.str();
  EXPECT_NE(out.str().find("ratio"), std::string::npos);

  std::ostringstream out2;
  status = cli::run({"decompress", dir.path("c.pyblaz"), "-o", dir.path("out.f64")},
                    out2);
  ASSERT_EQ(status, 0) << out2.str();

  NDArray<double> restored = cli::read_raw_f64(dir.path("out.f64"), Shape{32, 32});
  EXPECT_LT(reference::mean_absolute_error(array, restored), 1e-3);
}

TEST(CliCommands, InfoReportsSettings) {
  TempDir dir;
  Rng rng(1409);
  cli::write_raw_f64(dir.path("in.f64"), random_smooth(Shape{16, 16}, rng));
  std::ostringstream ignore;
  cli::run({"compress", dir.path("in.f64"), "--shape", "16,16", "--block", "4,4",
            "--ftype", "float64", "--itype", "int8", "--transform", "haar", "-o",
            dir.path("c.pyblaz")},
           ignore);

  std::ostringstream out;
  ASSERT_EQ(cli::run({"info", dir.path("c.pyblaz")}, out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("(16, 16)"), std::string::npos);
  EXPECT_NE(text.find("(4, 4)"), std::string::npos);
  EXPECT_NE(text.find("float64"), std::string::npos);
  EXPECT_NE(text.find("int8"), std::string::npos);
  EXPECT_NE(text.find("haar"), std::string::npos);
}

TEST(CliCommands, StatsMatchReference) {
  TempDir dir;
  Rng rng(1411);
  NDArray<double> array = random_smooth(Shape{32, 32}, rng);
  cli::write_raw_f64(dir.path("in.f64"), array);
  std::ostringstream ignore;
  cli::run({"compress", dir.path("in.f64"), "--shape", "32,32", "--block", "8,8",
            "--ftype", "float64", "--itype", "int32", "-o", dir.path("c.pyblaz")},
           ignore);

  std::ostringstream out;
  ASSERT_EQ(cli::run({"stats", dir.path("c.pyblaz")}, out), 0);
  // The printed mean should match the reference to the shown precision.
  std::ostringstream expected;
  expected << "mean:";
  EXPECT_NE(out.str().find("mean:"), std::string::npos);
  EXPECT_NE(out.str().find("L2 norm:"), std::string::npos);
}

TEST(CliCommands, DistanceMetrics) {
  TempDir dir;
  Rng rng(1413);
  NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  NDArray<double> y = random_smooth(Shape{32, 32}, rng);
  cli::write_raw_f64(dir.path("x.f64"), x);
  cli::write_raw_f64(dir.path("y.f64"), y);
  std::ostringstream ignore;
  for (const char* stem : {"x", "y"}) {
    cli::run({"compress", dir.path(std::string(stem) + ".f64"), "--shape", "32,32",
              "--block", "8,8", "--itype", "int16", "-o",
              dir.path(std::string(stem) + ".pyblaz")},
             ignore);
  }
  for (const char* metric : {"l2", "cosine", "ssim", "mse", "psnr", "wasserstein"}) {
    std::ostringstream out;
    EXPECT_EQ(cli::run({"distance", dir.path("x.pyblaz"), dir.path("y.pyblaz"),
                        "--metric", metric},
                       out),
              0)
        << metric << ": " << out.str();
    EXPECT_NE(out.str().find(metric), std::string::npos);
  }
}

TEST(CliCommands, DistanceRejectsInvalidWassersteinOrder) {
  TempDir dir;
  Rng rng(1415);
  for (const char* stem : {"x", "y"}) {
    cli::write_raw_f64(dir.path(std::string(stem) + ".f64"),
                       random_smooth(Shape{32, 32}, rng));
    std::ostringstream ignore;
    ASSERT_EQ(cli::run({"compress", dir.path(std::string(stem) + ".f64"),
                        "--shape", "32,32", "--block", "8,8", "-o",
                        dir.path(std::string(stem) + ".pyblaz")},
                       ignore),
              0);
  }
  for (const char* order : {"0", "-1", "nan", "2abc"}) {
    std::ostringstream out;
    EXPECT_EQ(cli::run({"distance", dir.path("x.pyblaz"), dir.path("y.pyblaz"),
                        "--metric", "wasserstein", "--order", order},
                       out),
              1)
        << order << ": " << out.str();
    EXPECT_NE(out.str().find("error:"), std::string::npos) << order;
  }
}

TEST(CliCommands, TuneFindsSettings) {
  TempDir dir;
  Rng rng(1417);
  NDArray<double> array = random_smooth(Shape{32, 32}, rng);
  cli::write_raw_f64(dir.path("in.f64"), array);
  std::ostringstream out;
  const int status = cli::run(
      {"tune", dir.path("in.f64"), "--shape", "32,32", "--target", "0.01"}, out);
  ASSERT_EQ(status, 0) << out.str();
  EXPECT_NE(out.str().find("best settings:"), std::string::npos);
}

TEST(CliCommands, TuneRejectsTrailingGarbageInTarget) {
  TempDir dir;
  Rng rng(1418);
  cli::write_raw_f64(dir.path("in.f64"), random_smooth(Shape{32, 32}, rng));
  std::ostringstream out;
  EXPECT_EQ(cli::run({"tune", dir.path("in.f64"), "--shape", "32,32",
                      "--target", "0.01abc"},
                     out),
            1)
      << out.str();
  EXPECT_NE(out.str().find("error:"), std::string::npos);
  EXPECT_NE(out.str().find("--target"), std::string::npos) << out.str();
}

TEST(CliCommands, ErrorsAreReportedNotThrown) {
  std::ostringstream out;
  EXPECT_EQ(cli::run({"compress", "/nonexistent.f64", "--shape", "8,8", "--block",
                      "4,4", "-o", "/tmp/x"},
                     out),
            1);
  EXPECT_NE(out.str().find("error:"), std::string::npos);

  std::ostringstream out2;
  EXPECT_EQ(cli::run({"frobnicate"}, out2), 2);
  EXPECT_NE(out2.str().find("unknown command"), std::string::npos);

  std::ostringstream out3;
  EXPECT_EQ(cli::run({}, out3), 0);  // Bare invocation prints help.
  EXPECT_NE(out3.str().find("commands:"), std::string::npos);
}

TEST(CliCommands, CompressWithPruning) {
  TempDir dir;
  Rng rng(1419);
  cli::write_raw_f64(dir.path("in.f64"), random_smooth(Shape{32, 32}, rng));
  std::ostringstream out;
  ASSERT_EQ(cli::run({"compress", dir.path("in.f64"), "--shape", "32,32",
                      "--block", "8,8", "--keep", "0.5", "-o", dir.path("c.pyblaz")},
                     out),
            0);
  std::ostringstream info;
  cli::run({"info", dir.path("c.pyblaz")}, info);
  EXPECT_NE(info.str().find("32/64"), std::string::npos);
}

TEST(CliCommands, CompressRejectsTrailingGarbageInKeep) {
  TempDir dir;
  Rng rng(1421);
  cli::write_raw_f64(dir.path("in.f64"), random_smooth(Shape{32, 32}, rng));
  std::ostringstream out;
  EXPECT_EQ(cli::run({"compress", dir.path("in.f64"), "--shape", "32,32",
                      "--block", "8,8", "--keep", "0.5xyz", "-o",
                      dir.path("c.pyblaz")},
                     out),
            1)
      << out.str();
  EXPECT_NE(out.str().find("error:"), std::string::npos);
  EXPECT_NE(out.str().find("--keep"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace pyblaz
