// Named entry points for the fuzz harnesses.
//
// Each fuzz/fuzz_*.cc implements its logic in one of these functions and
// wraps it in the conventional `extern "C" LLVMFuzzerTestOneInput` symbol —
// UNLESS the TU is compiled with GLSC_FUZZ_REGRESSION_TU, which suppresses
// the wrapper so all harnesses can link into a single binary:
// tests/fuzz_regression_test.cc replays fuzz/corpus-regressions/* through
// every harness in the normal ctest run, no clang or libFuzzer required.
#pragma once

#include <cstddef>
#include <cstdint>

namespace glsc::fuzz {

int FuzzArchiveReader(const std::uint8_t* data, std::size_t size);
int FuzzRangeCoder(const std::uint8_t* data, std::size_t size);

}  // namespace glsc::fuzz
