#pragma once

#include "core/kernels/backend.hpp"

/// Internal seam between the dispatcher (backend.cpp) and the per-ISA
/// translation units.  Each ISA TU always compiles (it is globbed into the
/// core library on every platform) but returns nullptr from its table_
/// function when the target ISA is not part of the build, so the dispatcher
/// needs no per-platform #ifdefs of its own.

namespace pyblaz::kernels::internal {

const KernelTable& scalar_table();

/// nullptr when the binary was not built with AVX2 support for this TU.
const KernelTable* avx2_table();

/// The shared (scalar) 2-symbol LUT walker; every backend table points its
/// huffman_decode_run slot here until an ISA ships a vectorized override.
index_t huffman_decode_run_generic(const HuffmanLut2Entry* lut,
                                   BitReader& reader, std::int32_t* out,
                                   index_t count, std::int32_t stop_symbol);

}  // namespace pyblaz::kernels::internal
