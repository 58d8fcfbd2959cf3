#include "model.h"

#include <stdexcept>
#include <vector>

#include "stats.h"
#include "util/bytes.h"

namespace perfbench {

glsc::api::CodecOptions GlscOptions() {
  glsc::api::CodecOptions options;
  options.window = 16;
  options.sample_steps = 6;
  return options;
}

std::unique_ptr<glsc::api::Compressor> LoadPinnedGlsc(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!glsc::ReadFileBytes(path, &bytes)) {
    throw std::runtime_error("cannot read GLSC model " + path);
  }
  const std::uint64_t hash = Fnv1a64(bytes.data(), bytes.size());
  if (bytes.size() != kPinnedModelBytes || hash != kPinnedModelFnv1a) {
    throw std::runtime_error(
        "GLSC model " + path + " is not the pinned artifact (" +
        std::to_string(bytes.size()) + " bytes, fnv1a64 " + Hex64(hash) +
        "; expected " + std::to_string(kPinnedModelBytes) + " bytes, " +
        Hex64(kPinnedModelFnv1a) + ")");
  }
  auto codec = glsc::api::Compressor::Create("glsc", GlscOptions());
  glsc::ByteReader in(bytes);
  codec->LoadModel(&in);
  return codec;
}

}  // namespace perfbench
