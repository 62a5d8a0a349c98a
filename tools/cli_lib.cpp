#include "tools/cli_lib.hpp"

#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/codec/ratio.hpp"
#include "core/codec/serialization.hpp"
#include "core/codec/tuning.hpp"
#include "core/ops/ops.hpp"
#include "core/util/table.hpp"

namespace pyblaz::cli {

namespace {

/// Minimal option parser: positional arguments plus --key value pairs.
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// The value of numeric option --@p key.  The whole token must parse, as
  /// parse_shape requires of each extent, so "2abc" is rejected, not read as 2.
  double number(const std::string& key, const std::string& fallback = "") const {
    const std::string text = get(key, fallback);
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(text, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed == 0 || consumed != text.size())
      throw std::invalid_argument("bad --" + key + " value: '" + text + "'");
    return value;
  }
};

ParsedArgs parse_args(const std::vector<std::string>& args, std::size_t skip) {
  ParsedArgs parsed;
  for (std::size_t k = skip; k < args.size(); ++k) {
    const std::string& arg = args[k];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (key == "guaranteed") {  // Flag without value.
        parsed.options[key] = "1";
      } else if (k + 1 < args.size()) {
        parsed.options[key] = args[++k];
      } else {
        throw std::invalid_argument("option --" + key + " needs a value");
      }
    } else if (arg == "-o" && k + 1 < args.size()) {
      parsed.options["output"] = args[++k];
    } else {
      parsed.positional.push_back(arg);
    }
  }
  return parsed;
}

CompressorSettings settings_from(const ParsedArgs& args) {
  CompressorSettings settings;
  settings.block_shape = parse_shape(args.get("block", "8,8"));
  settings.float_type = parse_float_type(args.get("ftype", "float32"));
  settings.index_type = parse_index_type(args.get("itype", "int8"));
  settings.transform = parse_transform(args.get("transform", "dct"));
  if (args.has("keep")) {
    const double keep = args.number("keep");
    settings.mask = PruningMask::keep_fraction(settings.block_shape, keep);
  }
  return settings;
}

int command_compress(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.empty() || !args.has("shape") || !args.has("output")) {
    out << "usage: compress INPUT --shape d0,d1,... --block b0,b1,... "
           "[--ftype T] [--itype T] [--transform dct|haar] [--keep F] -o OUT\n";
    return 2;
  }
  const Shape shape = parse_shape(args.get("shape"));
  CompressorSettings settings = settings_from(args);
  Compressor compressor(settings);
  NDArray<double> array = read_raw_f64(args.positional[0], shape);

  CompressionDiagnostics diagnostics;
  CompressedArray compressed = compressor.compress(array, &diagnostics);
  write_compressed(args.get("output"), compressed);

  out << "compressed " << shape.to_string() << " with " << settings.describe()
      << "\n";
  out << "ratio (vs FP64): " << Table::fmt(formula_ratio(settings, shape), 3)
      << "\n";
  out << "guaranteed L2 error bound: " << Table::sci(diagnostics.total_l2())
      << "\n";
  return 0;
}

int command_decompress(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.empty() || !args.has("output")) {
    out << "usage: decompress INPUT -o OUTPUT\n";
    return 2;
  }
  CompressedArray compressed = read_compressed(args.positional[0]);
  CompressorSettings settings{.block_shape = compressed.block_shape,
                              .float_type = compressed.float_type,
                              .index_type = compressed.index_type,
                              .transform = compressed.transform,
                              .mask = compressed.mask};
  Compressor compressor(settings);
  write_raw_f64(args.get("output"), compressor.decompress(compressed));
  out << "decompressed to " << compressed.shape.to_string() << " raw FP64\n";
  return 0;
}

int command_info(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.empty()) {
    out << "usage: info INPUT\n";
    return 2;
  }
  CompressedArray c = read_compressed(args.positional[0]);
  out << "shape:        " << c.shape.to_string() << "\n";
  out << "block shape:  " << c.block_shape.to_string() << "\n";
  out << "float type:   " << name(c.float_type) << "\n";
  out << "index type:   " << name(c.index_type) << "\n";
  out << "transform:    " << name(c.transform) << "\n";
  out << "kept/block:   " << c.kept_per_block() << "/" << c.block_shape.volume()
      << "\n";
  out << "blocks:       " << c.num_blocks() << "\n";
  out << "layout bits:  " << paper_layout_bits(c) << "\n";
  const double ratio = 64.0 * static_cast<double>(c.shape.volume()) /
                       static_cast<double>(paper_layout_bits(c));
  out << "ratio vs F64: " << Table::fmt(ratio, 3) << "\n";
  return 0;
}

int command_stats(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.empty()) {
    out << "usage: stats INPUT\n";
    return 2;
  }
  CompressedArray c = read_compressed(args.positional[0]);
  out << "mean:               " << Table::sci(ops::mean(c), 6) << "\n";
  out << "mean (unpadded):    " << Table::sci(ops::mean_unpadded(c), 6) << "\n";
  out << "variance:           " << Table::sci(ops::variance(c), 6) << "\n";
  out << "variance (unpadded):" << Table::sci(ops::variance_unpadded(c), 6) << "\n";
  out << "std deviation:      " << Table::sci(ops::standard_deviation(c), 6) << "\n";
  out << "L2 norm:            " << Table::sci(ops::l2_norm(c), 6) << "\n";
  out << "sum:                " << Table::sci(ops::sum(c), 6) << "\n";
  return 0;
}

int command_distance(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() < 2) {
    out << "usage: distance A B [--metric l2|cosine|ssim|mse|psnr|wasserstein]"
           " [--order P]\n";
    return 2;
  }
  CompressedArray a = read_compressed(args.positional[0]);
  CompressedArray b = read_compressed(args.positional[1]);
  const std::string metric = args.get("metric", "l2");
  double value = 0.0;
  if (metric == "l2") {
    value = ops::l2_norm(ops::subtract(a, b));
  } else if (metric == "cosine") {
    value = ops::cosine_similarity(a, b);
  } else if (metric == "ssim") {
    value = ops::structural_similarity(a, b);
  } else if (metric == "mse") {
    value = ops::mean_squared_error(a, b);
  } else if (metric == "psnr") {
    value = ops::psnr(a, b);
  } else if (metric == "wasserstein") {
    value = ops::wasserstein_distance(a, b, args.number("order", "2"));
  } else {
    out << "unknown metric: " << metric << "\n";
    return 2;
  }
  out << metric << ": " << Table::sci(value, 6) << "\n";
  return 0;
}

int command_tune(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.empty() || !args.has("shape") || !args.has("target")) {
    out << "usage: tune INPUT --shape d0,d1,... --target LINF [--guaranteed]\n";
    return 2;
  }
  const Shape shape = parse_shape(args.get("shape"));
  NDArray<double> sample = read_raw_f64(args.positional[0], shape);
  TuningOptions options;
  options.use_guaranteed_bound = args.has("guaranteed");
  TuningResult result =
      tune_for_linf(sample, args.number("target"), options);
  if (!result.best) {
    out << "no settings met the target (evaluated " << result.evaluated.size()
        << " candidates)\n";
    return 1;
  }
  out << "best settings: " << result.best->settings.describe() << "\n";
  out << "ratio:         " << Table::fmt(result.best->ratio, 3) << "\n";
  out << "Linf error:    " << Table::sci(result.best->linf_error) << "\n";
  return 0;
}

int command_help(std::ostream& out) {
  out << "pyblaz — operations directly on compressed arrays\n"
         "commands:\n"
         "  compress INPUT --shape d0,d1,.. --block b0,b1,.. [--ftype T]\n"
         "           [--itype T] [--transform dct|haar] [--keep F] -o OUT\n"
         "  decompress INPUT -o OUTPUT\n"
         "  info INPUT\n"
         "  stats INPUT\n"
         "  distance A B [--metric l2|cosine|ssim|mse|psnr|wasserstein] [--order P]\n"
         "  tune INPUT --shape d0,d1,.. --target LINF [--guaranteed]\n"
         "  help\n";
  return 0;
}

}  // namespace

Shape parse_shape(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("empty shape");
  std::vector<index_t> dims;
  std::stringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    std::size_t consumed = 0;
    long long value = 0;
    try {
      value = std::stoll(token, &consumed);
    } catch (const std::exception&) {
      throw std::invalid_argument("bad shape component: '" + token + "'");
    }
    if (consumed != token.size() || value <= 0)
      throw std::invalid_argument("bad shape component: '" + token + "'");
    dims.push_back(static_cast<index_t>(value));
  }
  if (dims.empty()) throw std::invalid_argument("empty shape");
  return Shape(std::move(dims));
}

FloatType parse_float_type(const std::string& text) {
  for (FloatType t : kAllFloatTypes)
    if (name(t) == text) return t;
  throw std::invalid_argument("unknown float type: " + text);
}

IndexType parse_index_type(const std::string& text) {
  for (IndexType t : kAllIndexTypes)
    if (name(t) == text) return t;
  throw std::invalid_argument("unknown index type: " + text);
}

TransformKind parse_transform(const std::string& text) {
  if (text == "dct") return TransformKind::kDCT;
  if (text == "haar") return TransformKind::kHaar;
  throw std::invalid_argument("unknown transform: " + text);
}

NDArray<double> read_raw_f64(const std::string& path, const Shape& shape) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + path);
  std::vector<double> data(static_cast<std::size_t>(shape.volume()));
  file.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(double)));
  if (file.gcount() !=
      static_cast<std::streamsize>(data.size() * sizeof(double)))
    throw std::runtime_error(path + " is smaller than shape " + shape.to_string());
  // Reject trailing data: the shape must describe the whole file.
  char extra;
  if (file.read(&extra, 1))
    throw std::runtime_error(path + " is larger than shape " + shape.to_string());
  return NDArray<double>(shape, std::move(data));
}

void write_raw_f64(const std::string& path, const NDArray<double>& array) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + path + " for writing");
  file.write(reinterpret_cast<const char*>(array.data()),
             static_cast<std::streamsize>(static_cast<std::size_t>(array.size()) *
                                          sizeof(double)));
  if (!file) throw std::runtime_error("failed writing " + path);
}

CompressedArray read_compressed(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                                  std::istreambuf_iterator<char>());
  return deserialize(bytes);
}

void write_compressed(const std::string& path, const CompressedArray& array) {
  const std::vector<std::uint8_t> bytes = serialize(array);
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + path + " for writing");
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!file) throw std::runtime_error("failed writing " + path);
}

int run(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty()) return command_help(out);
  const std::string& command = args[0];
  try {
    const ParsedArgs parsed = parse_args(args, 1);
    if (command == "compress") return command_compress(parsed, out);
    if (command == "decompress") return command_decompress(parsed, out);
    if (command == "info") return command_info(parsed, out);
    if (command == "stats") return command_stats(parsed, out);
    if (command == "distance") return command_distance(parsed, out);
    if (command == "tune") return command_tune(parsed, out);
    if (command == "help" || command == "--help") return command_help(out);
    out << "unknown command: " << command << "\n";
    command_help(out);
    return 2;
  } catch (const std::exception& error) {
    out << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace pyblaz::cli
